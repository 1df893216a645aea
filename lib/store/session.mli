(** Tuning sessions in a persistent store directory.

    A store is a directory:
    {v
    STORE/
      index.json                  (compacted, written by gc)
      sessions/<id>/meta.json     (session parameters, incl. start config)
      sessions/<id>/journal.jsonl (append-only rating events)
      sessions/<id>/result.json   (written on completion)
    v}

    The session id is a deterministic function of the tuning parameters
    ({!id_for}), so re-running the same [tune --store] command resumes
    the same session: {!open_} replays the existing journal into an
    in-memory cache, and the driver's rating lookups ({!find}) return
    already-rated configurations instantly — value {e and} consumed
    invocations/passes/cycles — which is what makes a resumed search
    bit-identical to an uninterrupted one.

    Rating keys: [find]/[record] key a rating by the session context
    (seed, dataset, rating-parameter signature), the method, the base
    configuration's digest (["-"] when the method rates absolutely), the
    candidate's batch index, and the configuration's digest.  Under the
    driver's deterministic per-candidate seeding a rating's value and
    cost are pure functions of exactly those coordinates, so replay is
    sound even across different search algorithms sharing one session
    journal. *)

open Peak_compiler

type t

val id_for :
  benchmark:string ->
  machine:string ->
  dataset:string ->
  search:string ->
  method_:string ->
  seed:int ->
  string
(** Deterministic session id, e.g. ["art-pentium4-train-ie-rbr-s11"]. *)

val open_ :
  ?tear:(flush:int -> size:int -> int option) ->
  dir:string ->
  meta:Codec.session_meta ->
  unit ->
  (t, string) result
(** Open (creating directories as needed) the session [meta.m_id] under
    store [dir].  If the session already exists its stored metadata wins
    (in particular the start configuration — a warm-started session
    resumes from its original start) after checking that the immutable
    parameters (benchmark, machine, dataset, search, seed, threshold,
    method, rating-parameter signature, fault plan) match; the existing journal is replayed
    into the rating cache, tolerating a truncated crash tail.

    Single-writer discipline: opening writes a [.writer] pidfile in the
    session directory and fails with an [Error] if one already names a
    live process (another daemon's session, or the same session opened
    twice in this process).  A pidfile whose process is gone — a crashed
    writer — is reclaimed silently.  {!close} removes the pidfile.

    [tear] is forwarded to {!Journal.open_append} — the fault-injection
    hook that simulates a power cut mid-flush (see {!Journal.Torn_write}). *)

val meta : t -> Codec.session_meta
(** The effective metadata (the stored one when resuming). *)

val store_dir : t -> string
(** The store root this session lives under — the [dir] given to
    {!open_}.  Lets callers reach sibling store artifacts such as the
    rating index ([index.json]), e.g. the staged search's training
    corpus. *)

val loaded_events : t -> int
(** Rating events replayed from the journal at {!open_} — [0] for a
    fresh session. *)

val find :
  t ->
  method_:string ->
  base:string ->
  idx:int ->
  Optconfig.t ->
  (float * bool * Codec.consumption * string option * int) option
(** Cached [(eval, converged, consumption, fail, retries)] for a
    (method, base-digest, batch-index, configuration) coordinate, if
    this session already rated it.  The convergence flag is what lets a
    resumed session replay the driver's fallback-probe decisions; the
    fail reason and retry count let it replay quarantine decisions. *)

val record :
  t ->
  method_:string ->
  base:string ->
  idx:int ->
  config:Optconfig.t ->
  eval:float ->
  converged:bool ->
  ?fail:string ->
  ?retries:int ->
  used:Codec.consumption ->
  unit ->
  unit
(** Log one rating event to the journal (batched fsync) and the cache.
    [fail] is the quarantine reason when the config was condemned
    rather than rated; [retries] (default 0) counts the transient
    failures absorbed on the way to this outcome. *)

val complete : t -> Codec.session_result -> unit
(** Flush the journal and atomically write [result.json]. *)

val close : t -> unit
(** Remove the [.writer] pidfile, flush and close the journal.
    Idempotent. *)

(** {1 Store interrogation (read-only)} *)

type info = {
  info_meta : Codec.session_meta;
  info_result : Codec.session_result option;  (** [None] while in progress. *)
  info_events : int;
  info_dropped : int;  (** Malformed journal lines (crash tails). *)
  info_live : bool;  (** A live writer (e.g. a daemon) holds the session. *)
}

val list : dir:string -> (info list, string) result
(** All sessions in the store, sorted by id.  A store directory without
    a [sessions/] subdirectory lists as empty; sessions whose metadata
    fails to decode are reported as an [Error].  Safe against a store
    concurrently held by a writer: a session directory created but not
    yet populated is skipped, and a journal mid-append reads through the
    usual torn-tail tolerance. *)

val live : dir:string -> id:string -> bool
(** Whether a live process currently holds the session's journal open
    (per the [.writer] pidfile).  [false] for stale pidfiles of dead
    writers. *)

val load_info : dir:string -> id:string -> (info, string) result

val events : dir:string -> id:string -> Codec.event list * int
(** Decoded rating events of one session's journal, in append order,
    plus the dropped-line count. *)

type gc_stats = {
  gc_sessions : int;
  gc_events : int;
  gc_dropped : int;  (** Malformed lines removed from journals. *)
  gc_index_entries : int;
}

val gc : dir:string -> (gc_stats, string) result
(** Compact the store: rewrite each journal without malformed lines,
    then rebuild [index.json] from every session's events with
    last-write-wins merge. *)

val export : dir:string -> (Json.t, string) result
(** The whole store as one JSON document (metadata, results, events). *)
