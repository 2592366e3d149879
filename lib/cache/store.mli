(** Content-addressed, on-disk persistent store for verification
    results.

    Entries are written under a directory, one file per key, where the
    key is a digest of the inputs that determine the result (source
    text, qualifier set, pipeline options — see
    {!Liquid_driver.Pipeline}).  Each entry embeds the build stamp of
    the writing binary, an options fingerprint, and an integrity digest
    of its payload; a stale, mismatched, truncated, or corrupt entry is
    silently rejected (and removed) so callers always fall back to a
    cold computation.  Writes are atomic (temp file + rename) and write
    failures are swallowed: the cache can only ever make a run faster,
    never wrong and never failing. *)

(** Counters for one store handle (cumulative over the process; handles
    are memoized per directory, so a long-lived daemon accumulates). *)
type stats = {
  mutable lookups : int; (* find calls *)
  mutable hits : int; (* entries served *)
  mutable misses : int; (* no entry on disk *)
  mutable rejected : int; (* stale stamp/fingerprint, corrupt, truncated *)
  mutable writes : int; (* entries persisted *)
  mutable write_errors : int; (* failed writes, swallowed *)
  mutable swept : int; (* orphaned temp files removed by [store] *)
}

type t

(** The writing binary's identity: an MD5 of the executable image, so a
    rebuilt dsolve never trusts entries marshalled by a different build
    (value layouts may have changed).  Falls back to a version string if
    the executable cannot be read. *)
val default_stamp : string

(** [open_store ?stamp ~dir ()] opens (creating if needed) the store
    rooted at [dir].  Handles are memoized per [(dir, stamp)], so
    repeated opens share one stats record.  [stamp] defaults to
    {!default_stamp}; tests override it to simulate builds that must not
    share entries.  Directory-creation failures are deferred: the handle
    is returned and every [find]/[store] just misses/swallows.  Opening
    reads nothing in the store, so its cost does not grow with it. *)
val open_store : ?stamp:string -> dir:string -> unit -> t

(** Digest the given parts (together with the store's stamp) into a
    cache key. *)
val key : t -> string list -> string

(** [find store ~key ~fingerprint] returns the stored value, or [None]
    if the entry is absent, carries a different stamp or fingerprint, or
    fails its integrity check (such entries are removed).  The payload
    is only unmarshalled after its digest verifies, so a corrupt file
    can never crash the reader.  The ['a] is trusted: callers must
    encode the value's type in the fingerprint.  [ns] selects a
    namespace — an extra directory level keeping differently-typed
    payloads (whole-run reports vs per-partition partials) apart. *)
val find : ?ns:string -> t -> key:string -> fingerprint:string -> 'a option

(** [store st ~key ~fingerprint v] persists [v] atomically (in the
    given namespace, when [ns] is set).  Any failure (permissions, disk
    full, unwritable dir) is swallowed and counted in [write_errors].

    Before writing, it sweeps the one fanout directory it writes into
    for orphaned ["<key>.bin.tmp.<pid>.<n>"] files — debris of writers
    that died between opening their temp file and renaming it into
    place.  A temp file is removed (and counted in [stats.swept]) only
    when its writer pid no longer exists, so a concurrent writer's
    in-flight file is never touched.  The sweep is paid on every write
    and reads the whole fanout directory, about 1/256 of the namespace,
    so its cost grows with the store, 256 times more slowly than a walk
    of it.  Opening a handle sweeps nothing, so a temp file orphaned in
    a fanout directory that is never written again stays. *)
val store : ?ns:string -> t -> key:string -> fingerprint:string -> 'a -> unit

(** Live counters of the handle (shared across memoized opens). *)
val stats : t -> stats

(** A detached copy (for marshalling across processes). *)
val stats_snapshot : t -> stats

val pp_stats : Format.formatter -> stats -> unit
