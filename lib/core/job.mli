(** One tuning request — a cell of the paper's Figure 7: a benchmark's
    tuning section on a machine and data set, rated by a method and
    explored by a search strategy.

    This is the single spelling of a request that the CLI, the tuning
    daemon and the persistent store share.  Names arriving as strings
    (command-line arguments, wire submit frames, stored [meta.json])
    are resolved here and only here, so every front end accepts the
    same spellings and reports the same one-line errors; {!meta} is the
    only builder of store metadata and of the deterministic session id,
    and {!of_meta} the only way back from stored metadata to a request. *)

open Peak_workload

type t = {
  benchmark : Benchmark.t;
  machine : Peak_machine.Machine.t;
  dataset : Trace.dataset;
  strategy : Strategy.t;
  method_ : Method.t option;  (** [None]: resolved by the §3 fallback walk. *)
  params : Rating.params;
  threshold : float;  (** Search acceptance threshold. *)
  seed : int;
  start : Peak_compiler.Optconfig.t;  (** Search start configuration. *)
  faults : Peak_sim.Fault.t option;
}

(** {1 Name resolution} *)

val benchmark_of_string : string -> (Benchmark.t, string) result
(** Registry lookup, case-insensitive. *)

val machine_of_string : string -> (Peak_machine.Machine.t, string) result
(** The machine's display name, or one of the short spellings
    [sparc2]/[sparc] and [pentium4]/[p4]; case-insensitive. *)

val dataset_of_string : string -> (Trace.dataset, string) result
(** [train] or [ref], case-insensitive. *)

val method_of_string : string -> (Method.t option, string) result
(** A {!Method} key, or [auto] for [None]. *)

val params_of_cap : int option -> (Rating.params, string) result
(** Default rating parameters, with the per-rating invocation cap
    replaced when one is given (it must be [>= 1]). *)

(** {1 Store metadata} *)

val meta : t -> Peak_store.Codec.session_meta
(** Canonical store metadata, including the deterministic session id
    (benchmark, machine, dataset, strategy key, requested method and
    seed). *)

val of_meta : Peak_store.Codec.session_meta -> (t, string) result
(** The request a stored session was created with: names resolved as
    above, rating parameters read back from their signature, the fault
    plan from its spec, and the stored threshold, seed and start kept.
    [of_meta (meta j)] rebuilds [j]. *)
