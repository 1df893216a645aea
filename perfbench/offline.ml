(* The two in-process workloads: store-backed sequential sessions on
   unclassed traces, and parallel suites on classed traces.  Each is a
   function running one round of its sessions into a report; the
   caller decides how many rounds fit the run. *)

open Peak_workload
open Common
module Session = Peak_store.Session

(* Sections whose traces declare no workload classes: every invocation
   is interpreted. *)
let unclassed = [ "ART"; "GZIP"; "CRAFTY"; "MCF"; "BZIP2"; "TWOLF"; "VORTEX"; "MESA" ]

(* Sections whose traces declare classes: the runner's class cache
   serves most invocations. *)
let classed = [ "APPLU"; "APSI"; "EQUAKE"; "MGRID"; "SWIM"; "WUPWISE" ]

(* Batch elimination rates a fixed number of candidates per session;
   iterative elimination's iteration count, and so its cost, would swing
   with the seed. *)
let strategy = Peak.Strategy.Be

let session_file ~store id file =
  List.fold_left Filename.concat store [ "sessions"; id; file ]

let open_session ~store meta =
  match Session.open_ ~dir:store ~meta () with
  | Ok s -> s
  | Error e -> failwith ("store: " ^ e)

let span name f = Peak_obs.with_span ~cat:"bench" name (fun _ -> f ())

let evaluate rep (sess : session) =
  let sp, dt = timed (fun () -> span ("bench:evaluate:" ^ sess.s_bench) (fun () -> speedup sess)) in
  rep.evaluate_s <- (sess.s_bench, dt) :: rep.evaluate_s;
  check rep (Float.is_finite sp && sp > 0.0) "%s/%d: speedup %g" sess.s_bench sess.s_seed sp;
  sp

(* The first round's sessions carry the deterministic metrics. *)
let record_prefix rep sess sp =
  rep.prefix <- rep.prefix @ [ sess ];
  rep.speedups <- rep.speedups @ [ sp ]

(* ---------------- tune-unclassed ---------------- *)

(* One store-backed session: tune, evaluate, then reopen and resume the
   completed session. *)
let unclassed_session rep ~store ~round ~seed name =
  let b = benchmark name in
  let meta = Peak.Driver.session_meta ~strategy ~seed b machine Trace.Train in
  let id = meta.Peak_store.Codec.m_id in
  let tune_in s =
    let fresh = ref 0 and total = ref 0 in
    let progress ~ratings ~fresh:f =
      total := ratings;
      fresh := f
    in
    let r = Peak.Driver.tune ~seed ~strategy ~store:s ~progress b machine Trace.Train in
    (r, !total, !fresh)
  in
  let (r, _, fresh), dt =
    timed (fun () ->
        span ("bench:session:" ^ id) (fun () ->
            let s = open_session ~store meta in
            Fun.protect ~finally:(fun () -> Session.close s) (fun () -> tune_in s)))
  in
  rep.session_s <- (name, dt) :: rep.session_s;
  let sess = session_of_summary ~bench:name ~seed ~fresh (Peak.Driver.result_summary r) in
  rep.sessions <- sess :: rep.sessions;
  let fresh_bytes = read_file (session_file ~store id "result.json") in
  check rep (fresh_bytes = sess.s_result ^ "\n") "%s: result.json differs from the returned result" id;
  if round = 0 then begin
    let j = session_file ~store id "journal.jsonl" in
    let a, b = Option.value rep.prefix_journals ~default:(0, 0) in
    rep.prefix_journals <- Some (a + count_lines j, b + file_size j)
  end;
  if round = 0 then record_prefix rep sess (evaluate rep sess);
  let (_, total, fresh'), dr =
    timed (fun () ->
        span ("bench:resume:" ^ id) (fun () ->
            let s = open_session ~store meta in
            Fun.protect ~finally:(fun () -> Session.close s) (fun () -> tune_in s)))
  in
  rep.resume_s <- (name, dr) :: rep.resume_s;
  rep.replay <- (total - fresh', total) :: rep.replay;
  check rep
    (read_file (session_file ~store id "result.json") = fresh_bytes)
    "%s: resumed result.json differs from the fresh one" id;
  invariant rep (output_matches sess) "%s: tuned output digest differs from -O3" id

let unclassed_round rep ~store ~seed round =
  List.iteri
    (fun slot name ->
      unclassed_session rep ~store ~round ~seed:(session_seed ~seed ~round ~slot) name)
    unclassed

(* ---------------- suite-classed ---------------- *)

let suite ~domains ~seed names =
  Peak.Driver.tune_suite ~seed ~strategy ~domains (List.map benchmark names) machine Trace.Train
  |> List.map2
       (fun name r ->
         let summary = Peak.Driver.result_summary r in
         session_of_summary ~bench:name ~seed ~fresh:summary.Peak_store.Codec.r_ratings summary)
       names

(* Every suite session is evaluated: classed evaluations are cheap. *)
let suite_round rep ~domains ~seed round =
  let seed = session_seed ~seed ~round ~slot:0 in
  let sessions, w =
    timed (fun () ->
        span (Printf.sprintf "bench:suite:%d" seed) (fun () -> suite ~domains ~seed classed))
  in
  (* tune_suite returns all sessions together: each is charged an equal
     share of the suite's wall *)
  let share = w /. float_of_int (List.length sessions) in
  List.iter
    (fun sess ->
      rep.session_s <- ("suite", share) :: rep.session_s;
      rep.sessions <- sess :: rep.sessions;
      let sp = evaluate rep sess in
      if round = 0 then record_prefix rep sess sp;
      invariant rep (output_matches sess) "%s/%d: tuned output digest differs from -O3" sess.s_bench
        sess.s_seed)
    sessions

(* ---------------- set-up ---------------- *)

(* Set-up, timed as such: an empty store directory, each section's
   static analyses, initialised trace and -O3 version, and one warm-up
   session so that the timed sessions find the runtime warm.  Repeated
   nine times; the last leaves the store for the run. *)
let build_fixtures ~store names =
  rm_rf store;
  mkdir_p (Filename.concat store "sessions");
  List.iter
    (fun name ->
      let b = benchmark name in
      let tsec = Peak.Tsection.make b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:1 in
      let env = Peak_ir.Interp.make_env b.Benchmark.ts in
      trace.Trace.init env;
      ignore
        (Peak_compiler.Version.compile machine tsec.Peak.Tsection.features
           Peak_compiler.Optconfig.o3))
    names

let setup rep ~store ~warm names =
  for _ = 1 to 9 do
    let (), dt =
      timed (fun () ->
          build_fixtures ~store names;
          warm ~store)
    in
    rep.setup_s <- dt :: rep.setup_s
  done

(* The warm-up sessions use a seed no timed session uses. *)
let warm_seed seed = session_seed ~seed ~round:(-1) ~slot:0

let warm_unclassed ~seed ~store =
  let b = benchmark "MCF" and seed = warm_seed seed in
  let s = open_session ~store (Peak.Driver.session_meta ~strategy ~seed b machine Trace.Train) in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () -> ignore (Peak.Driver.tune ~seed ~strategy ~store:s b machine Trace.Train))

let warm_classed ~domains ~seed ~store:_ = ignore (suite ~domains ~seed:(warm_seed seed) [ "SWIM" ])
