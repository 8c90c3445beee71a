(** Cached construction of expensive group-layer precomputations.

    Cold starts spend most of their time building the BSGS baby table
    (≈ sqrt(n·2^b) group additions + compressions) and the fixed-base
    point tables (512 entries each, one per Pedersen base). This module
    routes those constructions through a persistent {!Store.Cache}: a
    warm start loads the serialized artifacts and skips the group
    arithmetic entirely. Cache entries are keyed by the compressed base
    point plus all geometry parameters and CRC-framed; any mismatch or
    corruption silently rebuilds — the cache can never change results,
    only construction time.

    The default cache is process-global, configured once from the CLI
    ({!configure}); the [?cache] arguments override it per call (used by
    tests and benches). *)

(** [configure ?cache_dir ()] sets the process default cache; an
    omitted [cache_dir] leaves it unchanged. [cache_dir] is created if
    missing. *)
val configure : ?cache_dir:string -> unit -> unit

(** Back to no cache (tests). *)
val reset : unit -> unit

val cache : unit -> Store.Cache.t option

(** [dlog ~base ~max_abs ()] — a BSGS solver, from cache when possible.
    [m_scale] (default 1.0) scales the baby-table size: the time/memory
    trade of {!Curve25519.Dlog.create}. *)
val dlog :
  ?cache:Store.Cache.t ->
  ?m_scale:float ->
  base:Curve25519.Point.t ->
  max_abs:int ->
  unit ->
  Curve25519.Dlog.t

(** [table ~label ~base ()] — a fixed-base table, from cache when
    possible. [label] keeps same-point tables from different roles
    (e.g. setups with different derivation labels) distinct. *)
val table :
  ?cache:Store.Cache.t ->
  label:string ->
  base:Curve25519.Point.t ->
  unit ->
  Curve25519.Point.Table.table
