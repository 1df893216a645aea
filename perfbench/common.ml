(* Shared helpers of the benchmark: clocks, order statistics, seeds,
   scratch directories and the report record every workload fills. *)

open Peak_workload

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- order statistics ---------------- *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest percentile with at least ten samples beyond it: the
   value with exactly ten larger-ranked samples, and its percentile.
   With ten samples or fewer no value qualifies, and the maximum is
   reported as the 100th percentile.  Workloads feed it a fixed number
   of samples, so the percentile is the same on every run. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 0.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* The median of the per-section medians.  A workload's sections take
   very different times, so the plain median of all samples sits on the
   boundary between two sections' clusters and jumps with their extreme
   samples; the median of medians does not. *)
let section_median (samples : (string * float) list) =
  let sections = List.sort_uniq compare (List.map fst samples) in
  median
    (List.map
       (fun name -> median (List.filter_map (fun (n, v) -> if n = name then Some v else None) samples))
       sections)

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ---------------- inputs ---------------- *)

(* Per-session seed: a pure function of the run seed, the round and the
   session's slot, so the same run seed always yields the same
   sessions and no two sessions of a run share a seed. *)
let session_seed ~seed ~round ~slot =
  1 + (Hashtbl.hash (seed, round, slot, "peakbench") mod 999_983)

let benchmark name =
  match Registry.by_name name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

let machine = Peak_machine.Machine.pentium4

(* ---------------- files ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let count_lines path =
  try
    let s = read_file path in
    let n = ref 0 in
    String.iter (fun c -> if c = '\n' then incr n) s;
    !n
  with Sys_error _ -> 0

(* Everything the benchmark writes lives under this directory of the
   checkout it runs in. *)
let work_root = ".bench_build/peakbench"

(* ---------------- process facts ---------------- *)

(* VmHWM of a process ("self" or a pid) in MB, from /proc. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
      (String.split_on_char '\n' status)
  with
  | Some mb -> mb
  | None -> failwith ("no VmHWM in /proc/" ^ pid ^ "/status")

let nproc () = Domain.recommended_domain_count ()

(* ---------------- sessions and reports ---------------- *)

(* One completed tuning session, as every workload records it. *)
type session = {
  s_bench : string;
  s_seed : int;
  s_result : string;  (** [result.json]-encoded session result. *)
  s_ratings : int;
  s_fresh : int;
  s_invocations : int;
  s_method_inv : (string * int) list;  (** Invocations consumed per rating method. *)
  s_tuning_s : float;  (** Simulated tuning seconds. *)
  s_best : Peak_compiler.Optconfig.t;
}

let encode_result (r : Peak_store.Codec.session_result) =
  Peak_store.Json.to_string (Peak_store.Codec.session_result_to_json r)

let session_of_summary ~bench ~seed ~fresh (r : Peak_store.Codec.session_result) =
  {
    s_bench = bench;
    s_seed = seed;
    s_result = encode_result r;
    s_ratings = r.Peak_store.Codec.r_ratings;
    s_fresh = fresh;
    s_invocations = r.Peak_store.Codec.r_invocations;
    s_method_inv =
      (match r.Peak_store.Codec.r_metrics with
      | None -> []
      | Some m ->
          List.map
            (fun mm -> (mm.Peak_store.Codec.mm_method, mm.Peak_store.Codec.mm_invocations))
            m.Peak_store.Codec.x_methods);
    s_tuning_s = r.Peak_store.Codec.r_tuning_seconds;
    s_best = r.Peak_store.Codec.r_best;
  }

(* Whole-program speedup T(-O3)/T(best) on the Ref set. *)
let speedup (s : session) =
  let pct =
    Peak.Driver.improvement_pct (benchmark s.s_bench) machine ~best:s.s_best Trace.Ref
  in
  1.0 +. (pct /. 100.0)

(* The tuned configuration must compute what -O3 computes: digests of
   both versions at the same invocation ordinal of fresh runners.  The
   interpreter's results do not depend on the compiled version unless a
   fault plan is installed, and the benchmark installs none, so this
   can only catch a fault plan leaking in: it is an [invariant]. *)
let output_matches (s : session) =
  let b = benchmark s.s_bench in
  let tsec = Peak.Tsection.make b.Benchmark.ts in
  let digest config =
    let trace = b.Benchmark.trace Trace.Train ~seed:s.s_seed in
    let runner = Peak.Runner.create ~seed:s.s_seed tsec trace machine in
    let v = Peak_compiler.Version.compile machine tsec.Peak.Tsection.features config in
    Peak.Runner.output_digest runner v
  in
  Int64.equal (digest s.s_best) (digest Peak_compiler.Optconfig.o3)

(* Operation accounting and every sample a workload measured. *)
type report = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable setup_s : float list;
  mutable session_s : (string * float) list;
      (** Wall seconds, tagged with the section they ran on. *)
  mutable tail_s : float list;
      (** The fixed set of session timings [session_s_tail] is taken
          over: the first rounds offline, the first fresh submissions
          under serve-mixed. *)
  mutable evaluate_s : (string * float) list;
  mutable resume_s : (string * float) list;
  mutable replay : (int * int) list;  (** (replayed, total) ratings per resume. *)
  mutable first_progress_s : float list;
  mutable rounds : (float * int * int) list;
      (** Per timed round: wall seconds (evaluations excluded), fresh
          sessions, fresh ratings. *)
  mutable sessions : session list;  (** Timed fresh sessions, newest first. *)
  mutable prefix : session list;  (** The fixed first sessions deterministic metrics cover. *)
  mutable speedups : float list;  (** Of the prefix sessions. *)
  mutable prefix_journals : (int * int) option;  (** (appends, bytes) of the prefix journals. *)
  mutable rss_mb : float;
  mutable domains : int;
}

let new_report () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    setup_s = [];
    session_s = [];
    tail_s = [];
    evaluate_s = [];
    resume_s = [];
    replay = [];
    first_progress_s = [];
    rounds = [];
    sessions = [];
    prefix = [];
    speedups = [];
    prefix_journals = None;
    rss_mb = 0.0;
    domains = 1;
  }

(* Count one operation; [ok = false] makes it a failure with a reason. *)
let check rep ok fmt =
  Printf.ksprintf
    (fun msg ->
      rep.attempted <- rep.attempted + 1;
      if not ok then begin
        rep.failed <- rep.failed + 1;
        rep.problems <- msg :: rep.problems;
        Printf.eprintf "peakbench: FAILED %s\n%!" msg
      end)
    fmt

(* A check that holds by construction of the benchmark's inputs: it is
   counted only when it fails, so that [failed / attempted] covers the
   checks that can fail. *)
let invariant rep ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then check rep false "%s" msg)
    fmt
