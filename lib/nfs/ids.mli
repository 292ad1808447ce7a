(** A Bro-like intrusion detection system.

    Mirrors the state structure of Figure 1 in the paper:

    - {b per-flow}: a connection object plus protocol analyzers (TCP
      bookkeeping and an HTTP analyzer that reassembles the body and
      digests it for malware matching);
    - {b multi-flow}: per-host connection counters used for port-scan
      detection;
    - {b all-flows}: global packet/flow statistics.

    It also reproduces the two accuracy failure modes the paper uses to
    motivate guarantees: a lost payload packet corrupts the body digest
    (missed malware, §5.1.1) and a reordered SYN raises a spurious
    "SYN_inside_connection" weird-activity alert (§5.1.2). *)

open Opennf_net

type alert =
  | Port_scan of Ipaddr.t  (** Scanning source host. *)
  | Malware of { flow : Flow.key; digest : int64 }
  | Weird of { kind : string; flow : Flow.key }
  | Outdated_browser of { flow : Flow.key; agent : string }

type t

val create :
  ?malware:int64 list ->
  ?scan_threshold:int ->
  ?check_malware:bool ->
  unit ->
  t
(** [malware] lists digests ({!Opennf_util.Hashing.Digest_sig}) of
    known-bad HTTP bodies. [scan_threshold] is the number of distinct
    destination ports contacted by one host before [Port_scan] fires
    (default 10). [check_malware] is true for instances that run the
    malware script (the paper's cloud instances, §6); default [true]. *)

val impl : t -> Opennf_sb.Nf_api.impl

(** {1 Inspection} *)

val alert_log : t -> alert list
(** Alerts in the order raised. *)

val on_alert : t -> (alert -> unit) -> unit
(** Register a callback invoked at every alert (used by control
    applications watching the IDS output). *)

val conn_count : t -> int

val total_bytes : t -> int
(** Sum of payload bytes processed (all-flows state). *)

val bogus_log_entries : t -> int
(** Connections whose bookkeeping is inconsistent (e.g. terminated
    without ever seeing their setup) — the paper's "incorrect entries in
    conn.log" under VM replication (§8.4). *)
