(** Thread-safe metrics registry for long-lived services.

    Three instrument kinds, all safe to record from any domain:

    - {e counters}: monotone totals ({!inc}; {!set_counter} bridges a
      total accumulated elsewhere, e.g. the trace store's counters);
    - {e gauges}: levels, written ({!set}) or moved ({!add});
    - {e histograms}: log-linear (HDR-style) value distributions with
      exact counts and bounded-relative-error quantiles ({!observe},
      {!module-Hist}).

    Series are identified by a metric name plus a label set, as in
    Prometheus; {!render} emits the whole registry in Prometheus text
    exposition format (version 0.0.4): [# HELP]/[# TYPE] lines, escaped
    label values, histograms as cumulative [_bucket{le="..."}] series
    plus [_sum] and [_count].

    Registration is implicit: the first record against a name creates
    the family with that kind, and recording against an existing name
    with a different kind raises [Invalid_argument], as does a name or
    label name outside the Prometheus grammar
    ([[a-zA-Z_:][a-zA-Z0-9_:]*] / [[a-zA-Z_][a-zA-Z0-9_]*]). *)

(** Log-linear histogram: each power-of-two octave of the value range
    is split into {!subbuckets} linear buckets, so any recorded value
    falls in a bucket whose width is at most [1/subbuckets] of the
    value — quantiles read back from bucket midpoints carry a relative
    error of at most {!rel_error} [= 1/(2*subbuckets)].  Counts, sum,
    min and max are exact.  Values at or below [~1e-9] and at or above
    [~1e10] land in underflow/overflow buckets whose quantiles are
    reported as the exact observed min/max.  All operations are
    mutex-protected and safe from any domain. *)
module Hist : sig
  type t

  (** Linear buckets per power-of-two octave (32). *)
  val subbuckets : int

  (** Worst-case relative error of {!quantile} ([1/64]). *)
  val rel_error : float

  val create : unit -> t
  val observe : t -> float -> unit

  (** Exact number of observations. *)
  val count : t -> int

  (** Exact sum of observations. *)
  val sum : t -> float

  (** Exact observed extremes; [0.] when empty. *)
  val min_value : t -> float

  val max_value : t -> float

  (** Nearest-rank quantile (rank [max 1 (ceil (p * count))]) with
      relative error at most {!rel_error}; exactly [min_value] at
      [p = 0.] and [max_value] at [p = 1.]; [0.] when empty. *)
  val quantile : t -> float -> float

  (** Occupied buckets as [(inclusive upper bound, cumulative count)]
      in increasing bound order — the Prometheus [le] series, without
      the final [+Inf] (which is {!count}). *)
  val buckets : t -> (float * int) list
end

type t

(** Labels as [(name, value)] pairs; order is irrelevant (normalised
    internally). *)
type labels = (string * string) list

val create : unit -> t

(** [inc t name by] adds [by >= 0.] to a counter ([Invalid_argument]
    on a negative delta). *)
val inc : t -> ?labels:labels -> ?help:string -> string -> float -> unit

(** Overwrite a counter with a total maintained elsewhere.  The caller
    owns monotonicity. *)
val set_counter : t -> ?labels:labels -> ?help:string -> string -> float -> unit

(** Set a gauge. *)
val set : t -> ?labels:labels -> ?help:string -> string -> float -> unit

(** Add [by] (of either sign) to a gauge. *)
val add : t -> ?labels:labels -> ?help:string -> string -> float -> unit

(** Record one observation into a histogram series. *)
val observe : t -> ?labels:labels -> ?help:string -> string -> float -> unit

(** The underlying histogram of a series (created empty if new), for
    direct {!Hist} queries — the serve stats keep a handle per
    endpoint so the JSON snapshot and the Prometheus exposition read
    the same data. *)
val histogram : t -> ?labels:labels -> ?help:string -> string -> Hist.t

(** Current value of a counter or gauge series, if it exists. *)
val value : t -> ?labels:labels -> string -> float option

(** The whole registry in Prometheus text exposition format: families
    in registration order, each with [# HELP] and [# TYPE] lines, the
    series of a family sorted by label set.  Ends with a newline. *)
val render : t -> string
