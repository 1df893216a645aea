(* peakbench: the PEAK benchmark.

   peakbench.exe --workload W --seed N --seconds S --trace 0|1
                 --peak-tuned EXE [--commit C]

   Runs one workload for about S seconds on inputs made from the seed,
   checks every result, prints a readable table, a one-line report with
   provenance and sample counts, and as its last line the metrics
   object: end-to-end metrics untraced (--trace 0), per-layer metrics
   from a traced run (--trace 1).  Exits 1 if any check failed.  Why
   each workload exists and what each metric means: NOTES.md. *)

open Common
module Json = Peak_store.Json

let workloads = [ "tune-unclassed"; "suite-classed"; "serve-mixed" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  peak_tuned : string;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: peakbench.exe --workload (tune-unclassed|suite-classed|serve-mixed) --seed N \
     --seconds S --trace 0|1 --peak-tuned EXE [--commit C]";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k kv in
  let req k = match get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (req k) with Some n -> n | None -> usage () in
  let workload = req "--workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = match req "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = float_of_int (int "--seconds") in
  if seconds <= 0.0 then usage ();
  {
    workload;
    seed = int "--seed";
    seconds;
    trace;
    peak_tuned = req "--peak-tuned";
    commit = Option.value (get "--commit") ~default:"unknown";
  }

(* Whole rounds until the next one would overrun [budget] wall seconds,
   and at least [min_rounds]. *)
let rounds ~budget ~min_rounds round =
  let t0 = now () in
  let rec go r walls =
    let (), w = timed (fun () -> round r) in
    let walls = w :: walls in
    if r + 1 < min_rounds || now () -. t0 +. mean walls <= budget then go (r + 1) walls
  in
  go 0 []

(* Share of a traced serve-mixed run each half gets, the untraced and
   the traced; the probes take the rest. *)
let traced_share = 0.42

(* ---------------- what a traced run learns ---------------- *)

type gc_delta = { minor_mb : float; promoted_mb : float; major : int }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let mb w = w *. 8.0 /. 1048576.0 in
  {
    minor_mb = mb (b.Gc.minor_words -. a.Gc.minor_words);
    promoted_mb = mb (b.Gc.promoted_words -. a.Gc.promoted_words);
    major = b.Gc.major_collections - a.Gc.major_collections;
  }

type traced = {
  t_overhead : float;  (** Traced over untraced wall of the same work, minus one. *)
  t_coverage : float;  (** Σ layer unit cost × call count over the traced wall. *)
  t_traces : Peak.Tracefile.t list;  (** The program's spans and counters. *)
  t_gc : gc_delta;  (** Over the untraced half. *)
  t_first_progress : float list;  (** Session start to first rating, seconds. *)
  t_sections : (string * Layers.section) list;
  t_service : Layers.service;
}

(* A traced run's program spans and counters may come from several
   sinks (one per traced round); these read them as one. *)
let counter (ts : Peak.Tracefile.t list) name =
  List.fold_left (fun a (t : Peak.Tracefile.t) -> a + Option.value (List.assoc_opt name t.counters) ~default:0) 0 ts

let timing_count (ts : Peak.Tracefile.t list) name =
  List.fold_left
    (fun a (t : Peak.Tracefile.t) ->
      a + match List.assoc_opt name t.timings with Some (n, _) -> n | None -> 0)
    0 ts

let span_durations (ts : Peak.Tracefile.t list) cat =
  List.concat_map
    (fun (t : Peak.Tracefile.t) ->
      List.filter_map
        (fun (s : Peak.Tracefile.span) -> if s.sp_cat = cat then Some (s.sp_dur *. 1e-6) else None)
        t.spans)
    ts

let span_mean ts cat = mean (span_durations ts cat)
let span_total ts cat = List.fold_left ( +. ) 0.0 (span_durations ts cat)

(* Time from each [tune] span's start to the end of its first rating
   (a [rate] or [probe] span below it): when the session could first
   report progress. *)
let first_progress (t : Peak.Tracefile.t) =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Peak.Tracefile.span) -> Hashtbl.replace by_id s.sp_id s) t.spans;
  let rec tune_of id =
    match Hashtbl.find_opt by_id id with
    | None -> None
    | Some s when s.Peak.Tracefile.sp_cat = "tune" -> Some s
    | Some s -> tune_of s.Peak.Tracefile.sp_parent
  in
  let first = Hashtbl.create 64 in
  List.iter
    (fun (s : Peak.Tracefile.span) ->
      if s.sp_cat = "rate" || s.sp_cat = "probe" then
        match tune_of s.sp_parent with
        | None -> ()
        | Some tune ->
            let d = (s.sp_ts +. s.sp_dur -. tune.sp_ts) *. 1e-6 in
            let prev = Option.value (Hashtbl.find_opt first tune.sp_id) ~default:infinity in
            Hashtbl.replace first tune.sp_id (Float.min prev d))
    t.spans;
  Hashtbl.fold (fun _ d acc -> d :: acc) first []

let parse_trace text =
  match Result.bind (Json.of_string text) Peak.Tracefile.of_json with
  | Ok t -> t
  | Error e -> failwith ("trace parse: " ^ e)

(* Probe every section the sessions touched, with the sessions' own mean
   invocations per rating. *)
let probe_sections ~seed (sessions : session list) =
  let names = List.sort_uniq compare (List.map (fun s -> s.s_bench) sessions) in
  List.map
    (fun name ->
      let mine = List.filter (fun s -> s.s_bench = name) sessions in
      let inv = List.fold_left (fun a s -> a + s.s_invocations) 0 mine in
      let ratings = List.fold_left (fun a s -> a + s.s_ratings) 0 mine in
      (name, Layers.section ~seed ~inv_per_rating:(inv / max 1 ratings) name))
    names

(* Modeled busy time of the tuning work of some sessions: each rating
   method's invocations at the runner's steady unit cost (RBR consumes
   step pairs), plus a fresh runner and a version compile per rating. *)
let modeled_tuning sections (sessions : session list) =
  List.fold_left
    (fun acc s ->
      let c = List.assoc s.s_bench sections in
      let runner =
        List.fold_left
          (fun a (m, inv) ->
            a +. (float_of_int inv *. if m = "RBR" then c.Layers.pair_us else c.Layers.step_us))
          0.0 s.s_method_inv
      in
      let per_rating = c.Layers.fresh_us +. c.Layers.compile_us in
      acc +. ((runner +. (float_of_int s.s_ratings *. per_rating)) *. 1e-6))
    0.0 sessions

(* A Ref-set evaluation runs three noise-free full Ref passes. *)
let modeled_evaluate sections (sessions : session list) =
  List.fold_left
    (fun acc s ->
      let c = List.assoc s.s_bench sections in
      acc +. (3.0 *. float_of_int c.Layers.ref_len *. c.Layers.step_us *. 1e-6))
    0.0 sessions

let write_trace args text =
  let path = Filename.concat work_root (Printf.sprintf "trace-%s-%d.json" args.workload args.seed) in
  write_file path text;
  Printf.printf "trace written to %s\n" path

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let merge_into rep (trep : report) =
  rep.attempted <- rep.attempted + trep.attempted;
  rep.failed <- rep.failed + trep.failed;
  rep.problems <- trep.problems @ rep.problems

(* One Chrome trace out of several exports: each export's events keep
   their own process id, so sinks whose span ids overlap stay apart. *)
let merge_exports parts =
  let fields text =
    match Json.of_string text with
    | Ok (Json.Obj f) -> f
    | _ -> failwith "unreadable trace export"
  in
  let events pid text =
    match List.assoc_opt "traceEvents" (fields text) with
    | Some (Json.List evs) ->
        List.map
          (function
            | Json.Obj f ->
                Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, Json.Int pid) else (k, v)) f)
            | e -> e)
          evs
    | _ -> []
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.concat (List.mapi (fun i (_, text) -> events (i + 1) text) parts)));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj
             (List.mapi
                (fun i (name, text) ->
                  ( Printf.sprintf "%d:%s" (i + 1) name,
                    Option.value (List.assoc_opt "otherData" (fields text)) ~default:Json.Null ))
                parts) );
       ])

let traced_export f =
  Peak_obs.install ~capacity:200_000 ();
  Fun.protect ~finally:Peak_obs.uninstall (fun () ->
      let r = f () in
      (r, Option.get (Peak_obs.export ())))

(* ---------------- offline workloads ---------------- *)

(* Untraced, the workload runs whole rounds for the run's seconds, and
   at least [tail_rounds]: [session_s_tail] is taken over the sessions
   of that many rounds, evenly spaced over the run, so that a slow spell
   of the host weighs on them as it weighs on the run.  Traced, every round runs twice into fresh stores, untraced and
   under its own trace sink, in alternating order; the pairs give the
   tracing overhead and the traced results must equal the untraced
   ones. *)
let offline args rep ~benches ~tail_rounds ~warm ~round ~after =
  let store = Filename.concat work_root "store" in
  let tstore = Filename.concat work_root "store-traced" in
  Offline.setup rep ~store ~warm:(warm ~seed:args.seed) benches;
  rm_rf tstore;
  let trep = new_report () in
  let gc = ref { minor_mb = 0.0; promoted_mb = 0.0; major = 0 } in
  let base_wall = ref 0.0 and traced_wall = ref 0.0 and exports = ref [] in
  let round_times = ref [] in
  let untraced r =
    let g0 = Gc.quick_stat () in
    let sessions = List.length rep.sessions and evals = fsum snd rep.evaluate_s in
    let fresh = sum (fun s -> s.s_fresh) rep.sessions in
    let timings = List.length rep.session_s in
    let (), w = timed (fun () -> round rep ~store ~seed:args.seed r) in
    round_times :=
      List.filteri (fun i _ -> i < List.length rep.session_s - timings) (List.map snd rep.session_s)
      :: !round_times;
    rep.rounds <-
      ( w -. (fsum snd rep.evaluate_s -. evals),
        List.length rep.sessions - sessions,
        sum (fun s -> s.s_fresh) rep.sessions - fresh )
      :: rep.rounds;
    let d = gc_delta g0 (Gc.quick_stat ()) in
    gc :=
      {
        minor_mb = !gc.minor_mb +. d.minor_mb;
        promoted_mb = !gc.promoted_mb +. d.promoted_mb;
        major = !gc.major + d.major;
      };
    base_wall := !base_wall +. w
  in
  let traced r =
    let ((), wall), text =
      traced_export (fun () ->
          timed (fun () ->
              Peak_obs.with_span ~cat:"bench" (Printf.sprintf "bench:%s:round%d" args.workload r)
                (fun _ -> round trep ~store:tstore ~seed:args.seed r)))
    in
    traced_wall := !traced_wall +. wall;
    exports := (Printf.sprintf "round%d" r, text) :: !exports
  in
  let budget = if args.trace then 0.85 *. args.seconds else args.seconds in
  let () =
    rounds ~budget ~min_rounds:(if args.trace then 1 else tail_rounds) (fun r ->
        if not args.trace then untraced r
        else if r mod 2 = 0 then (untraced r; traced r)
        else (traced r; untraced r))
  in
  let round_times = Array.of_list (List.rev !round_times) in
  let n = Array.length round_times in
  let picks = min tail_rounds n in
  rep.tail_s <- List.concat (List.init picks (fun i -> round_times.(i * n / picks)));
  rm_rf store;
  rm_rf tstore;
  after rep;
  rep.rss_mb <- peak_rss_mb "self";
  if not args.trace then None
  else begin
    merge_into rep trep;
    check rep
      (List.map (fun s -> s.s_result) trep.sessions = List.map (fun s -> s.s_result) rep.sessions)
      "traced results differ from untraced ones";
    let exports = List.rev !exports in
    write_trace args (merge_exports exports);
    let traces = List.map (fun (_, text) -> parse_trace text) exports in
    let sections = probe_sections ~seed:args.seed rep.sessions in
    let service = Layers.service ~dir:work_root rep.prefix in
    let opens = if trep.resume_s = [] then 0 else List.length trep.sessions + List.length trep.resume_s in
    let modeled =
      modeled_tuning sections trep.sessions
      +. modeled_evaluate sections trep.prefix
      +. span_total traces "phase.profile"
      +. (float_of_int (counter traces "journal.appends") *. service.Layers.record_us *. 1e-6)
      +. (float_of_int opens *. service.Layers.open_ms *. 1e-3)
    in
    Some
      {
        t_overhead = (!traced_wall /. !base_wall) -. 1.0;
        t_coverage = modeled /. !traced_wall;
        t_traces = traces;
        t_gc = !gc;
        t_first_progress = List.concat_map first_progress traces;
        t_sections = sections;
        t_service = service;
      }
  end

(* suite-classed has no store of its own: the first round's sessions
   are re-tuned store-backed on one domain, which must reproduce the
   suite's results, and then resumed thirty times each.  That is what
   its resume and journal figures measure. *)
let suite_after ~domains rep =
  let store = Filename.concat work_root "suite-store" in
  rm_rf store;
  let resumable =
    List.map
      (fun (sess : session) ->
        let b = benchmark sess.s_bench in
        let meta =
          Peak.Driver.session_meta ~strategy:Offline.strategy ~seed:sess.s_seed b machine
            Peak_workload.Trace.Train
        in
        let journal = Offline.session_file ~store meta.Peak_store.Codec.m_id "journal.jsonl" in
        let tune () =
          match
            Peak.Driver.tune_suite ~seed:sess.s_seed ~strategy:Offline.strategy ~domains:1
              ~store_dir:store [ b ] machine Peak_workload.Trace.Train
          with
          | [ r ] -> encode_result (Peak.Driver.result_summary r)
          | _ -> failwith "tune_suite returned the wrong number of results"
        in
        check rep (tune () = sess.s_result)
          "%s/%d: 1-domain store-backed result differs from the %d-domain suite" sess.s_bench
          sess.s_seed domains;
        let events = count_lines journal in
        let a, bytes = Option.value rep.prefix_journals ~default:(0, 0) in
        rep.prefix_journals <- Some (a + events, bytes + file_size journal);
        (sess, tune, journal, events))
      rep.prefix
  in
  (* resumes take milliseconds, so each session is resumed many times,
     the sessions in turn, so that a slow spell of the host is shared
     among them *)
  for _ = 1 to 30 do
    List.iter
      (fun ((sess : session), tune, journal, events) ->
        let r, dt = timed tune in
        rep.resume_s <- (sess.s_bench, dt) :: rep.resume_s;
        (* a resume that had to rate anything appends to the journal *)
        rep.replay <- (events, count_lines journal) :: rep.replay;
        check rep (r = sess.s_result) "%s/%d: resumed result differs" sess.s_bench sess.s_seed)
      resumable
  done;
  rm_rf store

(* ---------------- serve-mixed ---------------- *)

let serve args rep =
  let domains = min 2 (nproc ()) and clients = nproc () in
  rep.domains <- domains;
  let start ?trace dir = Serve.start ~exe:args.peak_tuned ~dir ~domains ?trace () in
  let dir = Filename.concat work_root "serve" in
  (* set-up: a fresh store, a daemon up to its first accepted
     connection and one warm-up session, five times; the last daemon
     serves the run *)
  let rec setup k =
    let d, wall =
      timed (fun () ->
          let d = start dir in
          (try Serve.warm_up d ~seed:(Offline.warm_seed args.seed)
           with e ->
             Serve.stop d;
             raise e);
          d)
    in
    rep.setup_s <- wall :: rep.setup_s;
    if k > 1 then begin
      Serve.stop d;
      setup (k - 1)
    end
    else d
  in
  let d = setup 5 in
  let ph = Serve.new_phase () in
  let budget = if args.trace then traced_share *. args.seconds else args.seconds in
  let gc0 = Gc.quick_stat () in
  Fun.protect
    ~finally:(fun () -> Serve.stop d)
    (fun () ->
      Serve.load rep ph ~seed:args.seed ~clients ~seconds:budget d;
      rep.rss_mb <- peak_rss_mb (string_of_int d.Serve.pid));
  let gc1 = Gc.quick_stat () in
  rep.rounds <- [ (ph.Serve.wall, List.length rep.sessions, sum (fun s -> s.s_fresh) rep.sessions) ];
  rep.prefix_journals <- Some (Serve.prefix_journals ~store:d.Serve.store ph);
  check rep (ph.Serve.saturated = 0) "admission refused %d submits" ph.Serve.saturated;
  Serve.check_prefix rep ph ~seed:args.seed ~dir;
  rm_rf dir;
  if not args.trace then None
  else begin
    (* the same operation sequence against a traced daemon *)
    let tdir = Filename.concat work_root "serve-traced" in
    let daemon_trace = Filename.concat work_root "daemon-trace.json" in
    let trep = new_report () and tph = Serve.new_phase () in
    let (), bench_text =
      traced_export (fun () ->
          let td = start ~trace:daemon_trace tdir in
          Fun.protect
            ~finally:(fun () -> Serve.stop td)
            (fun () ->
              Peak_obs.with_span ~cat:"bench" "bench:serve-mixed" (fun _ ->
                  Serve.load trep tph ~seed:args.seed ~clients ~seconds:budget td)))
    in
    rm_rf tdir;
    merge_into rep trep;
    let both =
      Hashtbl.fold
        (fun k (f : Serve.fresh) n ->
          match Hashtbl.find_opt ph.Serve.completed k with
          | Some g ->
              check rep (f.Serve.f_json = g.Serve.f_json) "%s: traced result differs from untraced"
                f.Serve.f_id;
              n + 1
          | None -> n)
        tph.Serve.completed 0
    in
    check rep (both > 0) "no session completed in both the traced and the untraced half";
    let daemon_text = read_file daemon_trace in
    Sys.remove daemon_trace;
    write_trace args
      (merge_exports [ ("benchmark", bench_text); ("peak-tuned", daemon_text) ]);
    let traces = [ parse_trace daemon_text ] in
    let sections = probe_sections ~seed:args.seed rep.sessions in
    let service = Layers.service ~dir:work_root rep.prefix in
    let fresh = List.length trep.sessions and resumes = List.length trep.resume_s in
    let modeled =
      modeled_tuning sections trep.sessions
      +. span_total traces "phase.profile"
      +. (float_of_int (counter traces "journal.appends") *. service.Layers.record_us *. 1e-6)
      +. (float_of_int (fresh + resumes) *. service.Layers.open_ms *. 1e-3)
      +. float_of_int tph.Serve.frames
         *. (service.Layers.wire_encode_us +. service.Layers.wire_decode_us)
         *. 1e-6
      +. (float_of_int (fresh + resumes) *. service.Layers.admit_us *. 1e-6)
    in
    let per_session wall n = wall /. float_of_int (max 1 n) in
    Some
      {
        t_overhead =
          (per_session tph.Serve.wall fresh /. per_session ph.Serve.wall (List.length rep.sessions))
          -. 1.0;
        t_coverage = modeled /. tph.Serve.wall;
        t_traces = traces;
        t_gc = gc_delta gc0 gc1;
        t_first_progress = rep.first_progress_s;
        t_sections = sections;
        t_service = service;
      }
  end

(* ---------------- metrics ---------------- *)

let journals rep = Option.value rep.prefix_journals ~default:(0, 0)

(* Deterministic per seed: must repeat exactly across runs, traced or
   not. *)
let fingerprint rep =
  [
    ("tuning_sim_s", Json.Float (fsum (fun s -> s.s_tuning_s) rep.prefix));
    ("speedup_geomean", Json.Float (geomean rep.speedups));
    ("driver.invocations", Json.Int (sum (fun s -> s.s_invocations) rep.prefix));
    ("search.ratings", Json.Int (sum (fun s -> s.s_ratings) rep.prefix));
    ("store.journal_appends", Json.Int (fst (journals rep)));
    ("store.journal_bytes", Json.Int (snd (journals rep)));
  ]

(* Throughput per wall second: the median over timed rounds offline, the
   whole timed loop under serve-mixed. *)
let rate rep f = median (List.map (fun (wall, n, fresh) -> float_of_int (f (n, fresh)) /. wall) rep.rounds)

let end_to_end rep =
  [
    ("setup_s", median rep.setup_s, "s");
    ("sessions_per_s", rate rep fst, "1/s");
    ("session_s_p50", section_median rep.session_s, "s");
    ("session_s_tail", fst (tail rep.tail_s), "s");
    ("ratings_per_s", rate rep snd, "1/s");
    ("resume_s_p50", section_median rep.resume_s, "s");
    ("tuning_sim_s", fsum (fun s -> s.s_tuning_s) rep.prefix, "s");
    ("speedup_geomean", geomean rep.speedups, "ratio");
    ("peak_rss_mb", rep.rss_mb, "MB");
  ]

(* Bytes a session costs on the wire: its submit, the Accepted reply
   and the result frame, newline-terminated. *)
let wire_bytes (s : session) =
  let frame j = String.length (Json.to_string j) + 1 in
  let spec =
    { (Serve.spec ~seed:0 0) with Peak_serve.Wire.sb_benchmark = s.s_bench; sb_seed = s.s_seed }
  in
  let result =
    match Result.bind (Json.of_string s.s_result) Peak_store.Codec.session_result_of_json with
    | Ok r -> r
    | Error e -> failwith e
  in
  frame (Peak_serve.Wire.request_to_json (Peak_serve.Wire.Submit spec))
  + frame (Peak_serve.Wire.response_to_json (Peak_serve.Wire.Accepted { ac_id = "-"; ac_resumed = 0 }))
  + frame (Peak_serve.Wire.response_to_json (Peak_serve.Wire.Result_r { rr_id = "-"; rr_result = result }))

let per_layer rep (t : traced) =
  let avg f = mean (List.map (fun (_, c) -> f c) t.t_sections) in
  let count name = float_of_int (counter t.t_traces name) in
  let fsyncs = timing_count t.t_traces "journal.fsync" in
  let replayed = sum fst rep.replay and total = sum snd rep.replay in
  [
    ("interp.step_ns", avg (fun c -> c.Layers.interp_ns), "ns");
    ("runner.step_us", avg (fun c -> c.Layers.step_us), "us");
    ("runner.step_pair_us", avg (fun c -> c.Layers.pair_us), "us");
    ("runner.fresh_us", avg (fun c -> c.Layers.fresh_us), "us");
    ("runner.interp_steps_per_invocation", avg (fun c -> c.Layers.steps_per_inv), "count");
    ("driver.invocations", float_of_int (sum (fun s -> s.s_invocations) rep.prefix), "count");
    ("machine.memsys_charge_ns", avg (fun c -> c.Layers.memsys_ns), "ns");
    ("machine.cost_cycles_ns", avg (fun c -> c.Layers.cost_ns), "ns");
    ("rating.summarize_ns", avg (fun c -> c.Layers.summarize_ns), "ns");
    ("compiler.compile_us", avg (fun c -> c.Layers.compile_us), "us");
    ("rating.rate_ms", 1e3 *. span_mean t.t_traces "rate", "ms");
    ("pool.submitted", count "pool.submitted", "count");
    ("pool.steals", count "pool.steals", "count");
    ("pool.worker_tasks", count "pool.worker_tasks", "count");
    ("store.session_open_ms", t.t_service.Layers.open_ms, "ms");
    ("store.record_us", t.t_service.Layers.record_us, "us");
    ("store.result_encode_us", t.t_service.Layers.encode_us, "us");
    ("store.result_decode_us", t.t_service.Layers.decode_us, "us");
    ("store.journal_appends", float_of_int (fst (journals rep)), "count");
    ("store.fsyncs", float_of_int fsyncs, "count");
    ("store.fsync_ms", t.t_service.Layers.fsync_ms, "ms");
    ("store.journal_bytes", float_of_int (snd (journals rep)), "bytes");
    ("store.replay_ratio", float_of_int replayed /. float_of_int (max 1 total), "ratio");
    ("wire.encode_us", t.t_service.Layers.wire_encode_us, "us");
    ("wire.decode_us", t.t_service.Layers.wire_decode_us, "us");
    ("wire.bytes_per_session", mean (List.map (fun s -> float_of_int (wire_bytes s)) rep.prefix), "bytes");
    ("admission.admit_us", t.t_service.Layers.admit_us, "us");
    ("admission.saturated", count "serve.rejected", "count");
    ("daemon.first_progress_ms_p50", 1e3 *. median t.t_first_progress, "ms");
    ("profile.run_s", span_mean t.t_traces "phase.profile", "s");
    ("evaluate_s_p50", section_median rep.evaluate_s, "s");
    ("search.ratings", float_of_int (sum (fun s -> s.s_ratings) rep.prefix), "count");
    ("search.fresh_ratings", float_of_int (sum (fun s -> s.s_fresh) rep.prefix), "count");
    ("gc.minor_mb", t.t_gc.minor_mb, "MB");
    ("gc.promoted_mb", t.t_gc.promoted_mb, "MB");
    ("gc.major_collections", float_of_int t.t_gc.major, "count");
    ("trace.overhead_frac", t.t_overhead, "ratio");
    ("attribution_coverage", t.t_coverage, "ratio");
    ("failed_frac", float_of_int rep.failed /. float_of_int (max 1 rep.attempted), "ratio");
  ]

let provenance args rep =
  let n xs = Json.Int (List.length xs) in
  Json.Obj
    [
      ( "provenance",
        Json.Obj
          [
            ("workload", Json.String args.workload);
            ("seed", Json.Int args.seed);
            ("seconds", Json.Float args.seconds);
            ("trace", Json.Bool args.trace);
            ("commit", Json.String args.commit);
            ("nproc", Json.Int (nproc ()));
            ("ocaml", Json.String Sys.ocaml_version);
            ("domains", Json.Int rep.domains);
            ("machine", Json.String machine.Peak_machine.Machine.name);
          ] );
      ( "samples",
        Json.Obj
          [
            ("setup_s", n rep.setup_s);
            ("session_s", n rep.session_s);
            ("session_s_tail", n rep.tail_s);
            ("evaluate_s", n rep.evaluate_s);
            ("resume_s", n rep.resume_s);
            ("first_progress_s", n rep.first_progress_s);
            ("prefix_sessions", n rep.prefix);
          ] );
      ("session_s_tail_percentile", Json.Float (snd (tail rep.tail_s)));
      ("fingerprint", Json.Obj (fingerprint rep));
      ("problems", Json.List (List.rev_map (fun p -> Json.String p) rep.problems));
    ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupted run still stops the daemons it started *)
  let interrupted _ =
    Serve.stop_all ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let args = parse_args () in
  mkdir_p work_root;
  let rep = new_report () in
  let traced =
    match args.workload with
    | "tune-unclassed" ->
        offline args rep ~benches:Offline.unclassed ~tail_rounds:5 ~warm:Offline.warm_unclassed
          ~round:Offline.unclassed_round ~after:ignore
    | "suite-classed" ->
        let domains = min 2 (nproc ()) in
        rep.domains <- domains;
        offline args rep ~benches:Offline.classed ~tail_rounds:5 ~warm:(Offline.warm_classed ~domains)
          ~round:(fun rep ~store:_ ~seed r -> Offline.suite_round rep ~domains ~seed r)
          ~after:(suite_after ~domains)
    | _ -> serve args rep
  in
  let metrics =
    match traced with None -> end_to_end rep | Some t -> per_layer rep t
  in
  (* a metric without a value is a failed measurement, reported as 0 *)
  let metrics =
    List.map
      (fun (name, v, unit) ->
        check rep (Float.is_finite v) "metric %s has no finite value" name;
        (name, (if Float.is_finite v then v else 0.0), unit))
      metrics
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.6g %s\n" name v unit) metrics;
  print_endline (Json.to_string (provenance args rep));
  let correct = rep.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int rep.attempted);
            ("failed", Json.Int rep.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
