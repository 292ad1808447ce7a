(** An iptables/conntrack-like NAT and stateful firewall.

    Tracks the 5-tuple, TCP state and the allocated translation port for
    every active flow (per-flow state only — like iptables, it has no
    multi- or all-flows state, §7). A non-SYN packet for an unknown flow
    is invalid and dropped, which is why moving conntrack entries
    alongside reroutes matters. *)

open Opennf_net

type tcp_state = New | Established | Fin_wait | Closed

type t

val create :
  ?backend:Opennf_state.Backend.t ->
  ?port_base:int -> ?port_limit:int -> unit -> t
(** Translation ports are drawn from [\[port_base, port_limit\]]
    (defaults 20000–65535) and recycled: allocation wraps within the
    range and reclaims ports whose flows have reached [Closed]. When
    every port backs a live unclosed flow, new flows are dropped (and
    counted) rather than handed an out-of-range port.

    With [backend], the whole conntrack state lives in the backend's
    store registry (under the name ["nat"]) instead of the instance:
    every instance created over the same shared backend sees one table
    (and the first creator's configuration), so moving flows between
    them is a pure forwarding-state operation. *)

val impl : t -> Opennf_sb.Nf_api.impl

(** {1 Inspection} *)

val entry_count : t -> int
val invalid_count : t -> int
(** Packets rejected for lacking a conntrack entry (including SYNs
    dropped on port exhaustion). *)

val exhausted_count : t -> int
(** SYNs dropped because the translation port range was exhausted. *)

val state_of : t -> Flow.key -> tcp_state option
val translation_of : t -> Flow.key -> int option
(** The external port allocated to a flow. *)
