(** Domain-safe, single-flight memo table: each key is computed exactly
    once, concurrent callers of an in-flight key block until its value
    (or failure) is published. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t

(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] (outside the lock) and caches it.  If [f] raised, the
    failure is cached and re-raised for every caller of [k]. *)
val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

(** Number of keys present (computed, failed or in flight). *)
val length : ('k, 'v) t -> int

(** Snapshot of the successfully computed bindings, in no particular
    order (hash order) — sort by key for a deterministic view. *)
val bindings : ('k, 'v) t -> ('k * 'v) list
