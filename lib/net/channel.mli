(** Point-to-point FIFO message channels.

    Models both data links (switch port → NF) and control channels
    (controller ↔ switch, controller ↔ NF). Delivery time accounts for
    propagation latency and optional serialization at a byte bandwidth;
    delivery order always equals send order (FIFO), which the
    order-preserving move protocol relies on.

    When a {!Opennf_sim.Faults.t} is wired in, each send consults the
    channel's fault profile ({!Opennf_sim.Faults.link} of the channel's
    [name], looked up once at creation, so a profile set later still
    applies): messages may be dropped, duplicated, or delayed by
    FIFO-preserving jitter. Without one, or while the profile is quiet,
    behaviour is exactly fault-free and fully deterministic. *)

type 'a t

val create :
  Opennf_sim.Engine.t ->
  latency:float ->
  ?bandwidth:float ->
  ?faults:Opennf_sim.Faults.t ->
  name:string ->
  unit ->
  'a t
(** [bandwidth] is bytes/second; omitted means infinite. *)

val set_handler : 'a t -> ('a -> unit) -> unit
(** Installs the delivery handler. Deliveries that came due earlier are
    buffered and handed to the new handler immediately, in order. *)

val set_handler_with_size : 'a t -> ('a -> int -> unit) -> unit
(** Like [set_handler], but the handler also receives the wire size the
    sender declared (receivers whose processing cost scales with bytes
    read need it). *)

val send : 'a t -> size:int -> 'a -> unit
(** [size] (bytes) is the message's wire size: it sets the
    serialization delay on a channel with finite bandwidth and is added
    to {!bytes_sent} and the handler's size argument. Required, so a
    send boxes no optional argument. *)

val name : 'a t -> string
val sent_count : 'a t -> int
val bytes_sent : 'a t -> int

val dropped_count : 'a t -> int
(** Messages discarded by fault injection on this channel. *)
