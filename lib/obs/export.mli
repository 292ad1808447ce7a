(** Exporters over the trace buffer and metrics registry. *)

val chrome : Trace.t -> string
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]): spans as
    async nestable ["b"]/["e"] pairs matched by cat+id, instants as
    ["i"], timestamps in virtual-time microseconds. Deterministic:
    byte-identical across runs of the same seeded scenario. Load via
    [chrome://tracing] or Perfetto. *)

val timeline : Trace.t -> string
(** Human-readable one-line-per-event dump in emission order. *)

val metrics_json : Metrics.t -> string
(** Counters/gauges/histogram summaries as JSON, sorted by name.
    Histograms carry count, exact sum, mean, p50/p90/p99 (log-bucket
    quantiles) and max. *)

val openmetrics : Metrics.t -> string
(** OpenMetrics text exposition: counters as [<name>_total], gauges as
    last value plus a [<name>_peak] companion, histograms as summaries
    with p50/p90/p99 quantile lines, [_sum] and [_count]. Names are
    sanitized to the metric charset; ends with [# EOF]. *)
