(** Fast failure recovery (Figure 9 of the paper).

    Maintains a hot standby with an eventually consistent copy of
    another instance's state. Rather than re-copying everything
    periodically, the standby is refreshed when packets that matter for
    the NF's analyses are processed: TCP SYN, TCP RST, and HTTP requests
    from local clients — exactly Figure 9's three [notify] calls. On
    failure, traffic is rerouted to the standby, which already holds the
    critical state.

    When both instances were built over a replicated backend pair
    ({!Opennf_state.Backend.replicated_pair}, detected automatically
    from the controller's registry at {!init_standby}), the app skips
    the triggers and seed copy entirely — the backend's per-packet
    delta stream keeps the standby fresh — and {!fail_over} becomes
    promote-standby + reroute with zero bulk transfer. The copy-based
    path is retained (and used whenever no such pair is registered) as
    the oracle the backend bench compares against. *)

open Opennf_net
open Opennf

type t

val init_standby :
  Controller.t ->
  normal:Controller.nf ->
  standby:Controller.nf ->
  unit ->
  t
(** Registers the notifications. The HTTP-request trigger is scoped to
    10.0.0.0/8, as in Figure 9 line 6. Multi-flow state is
    copied up front so scan counters exist at the standby. *)

val fail_over : t -> filter:Filter.t -> unit
(** Blocking: reroute matching traffic to the standby (the "normal"
    instance is presumed dead — nothing is fetched from it). Records
    {!recovered_at} on first invocation. *)

val enable_auto : t -> filter:Filter.t -> unit
(** Drive {!fail_over} from the controller's liveness monitor: when the
    primary is declared dead ({!Opennf.Controller.on_nf_death}), traffic
    matching [filter] is rerouted to the standby and the refresh
    notifications are stopped. Requires the controller to have a
    resilience policy (and probes or traffic) for deaths to be
    detected. *)

val recovered_at : t -> float option
(** Virtual time of the first {!fail_over}, if any — used to measure
    recovery time against the crash instant. *)

val replicated : t -> bool
(** True when the app detected a replicated backend pair and runs in
    promote-on-failure mode. *)

val refreshes : t -> int
(** Number of per-flow state refreshes pushed to the standby by the
    copy-based path (always 0 in replicated mode — freshness comes from
    the delta stream, counted in {!delta_bytes}). *)

val bulk_bytes : t -> int
(** Bytes moved by get/put copies (the seed copy and every refresh).
    Zero in replicated mode. *)

val delta_bytes : t -> int
(** Wire bytes of the backend's delta stream so far. Zero in copy mode.
    The two counters are disjoint by construction, so the new backend
    bench can report both honestly. *)

val bytes_transferred : t -> int
(** Serialized state bytes shipped to the standby so far:
    [bulk_bytes + delta_bytes]. *)

val stop : t -> unit
