(** Registry of counters, gauges and summaries with Prometheus-style
    text exposition.

    A registry is an explicit instance, not a process global: the server
    owns one, [profile --live] builds one, tests build their own — so
    nothing leaks between components or test cases. Registration takes a
    small lock; reading a counter is a lock-free [Atomic] load, and
    gauges/summaries are pulled through their closures only at [expose]
    time (a closure may take its component's own lock). *)

type t

val create : unit -> t

(** [counter t ~help name] registers (or returns the existing) counter
    for [(name, labels)]. Bump it with [Atomic.incr]/[fetch_and_add].
    @raise Invalid_argument if the pair is already registered as a
    different metric kind. *)
val counter :
  t -> ?labels:(string * string) list -> help:string -> string -> int Atomic.t

(** Register a gauge sampled at exposition time. *)
val gauge :
  t ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  (unit -> float) ->
  unit

(** Register a gauge family whose label sets are only known at sample
    time (per-lane, per-color series): the callback returns one
    [(labels, value)] pair per series. *)
val multi_gauge :
  t ->
  help:string ->
  string ->
  (unit -> ((string * string) list * float) list) ->
  unit

(** Register a quantile summary sampled at exposition time; rendered as
    Prometheus [quantile] series plus [_sum]/[_count]. *)
val summary :
  t ->
  ?labels:(string * string) list ->
  help:string ->
  string ->
  (unit -> Metrics.pctiles) ->
  unit

(** Render every metric in Prometheus text format, grouped by metric
    name in first-registration order, each name preceded by its
    [# HELP]/[# TYPE] header. Lines end in ["\n"]. *)
val expose : t -> string
