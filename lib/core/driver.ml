open Peak_machine
open Peak_compiler
open Peak_workload

type result = {
  benchmark : Benchmark.t;
  machine : Machine.t;
  dataset : Trace.dataset;
  method_used : Method.t;
  attempts : Method.attempt list;
  strategy : Strategy.t;
  stages : Strategy.stage list;
  best_config : Optconfig.t;
  search_stats : Search.stats;
  tuning_cycles : float;
  tuning_seconds : float;
  passes : int;
  invocations : int;
  quarantined : (Optconfig.t * string) list;
  fault_retries : int;
  metrics : Peak_store.Codec.metrics;
  profile : Profile.t;
  advice : Consultant.advice;
}

let non_ts_cycles_of (benchmark : Benchmark.t) (profile : Profile.t) =
  let share = benchmark.Benchmark.time_share in
  profile.Profile.ts_pass_cycles *. (1.0 -. share) /. share

let auto_method profile tsec = (Consultant.advise tsec profile).Consultant.chosen

let result_summary (r : result) : Peak_store.Codec.session_result =
  {
    Peak_store.Codec.r_method = Method.name r.method_used;
    r_attempts =
      List.map
        (fun (a : Method.attempt) ->
          {
            Peak_store.Codec.at_method = Method.name a.Method.a_method;
            at_converged = a.Method.a_converged;
            at_ratings = a.Method.a_ratings;
          })
        r.attempts;
    r_strategy = Strategy.key r.strategy;
    r_stages =
      List.map
        (fun (s : Strategy.stage) ->
          {
            Peak_store.Codec.st_label = s.Strategy.sg_label;
            st_ratings = s.Strategy.sg_ratings;
            st_flags = s.Strategy.sg_flags;
          })
        r.stages;
    r_best = r.best_config;
    r_ratings = r.search_stats.Search.ratings;
    r_iterations = r.search_stats.Search.iterations;
    r_trajectory = r.search_stats.Search.trajectory;
    r_tuning_cycles = r.tuning_cycles;
    r_tuning_seconds = r.tuning_seconds;
    r_passes = r.passes;
    r_invocations = r.invocations;
    r_quarantined = r.quarantined;
    r_retries = r.fault_retries;
    r_metrics = Some r.metrics;
  }

let session_meta ?method_ ?(strategy = Strategy.Ie) ?(rating_params = Rating.default_params)
    ?(threshold = 0.005) ?(seed = 11) ?(start = Optconfig.o3) ?faults benchmark machine dataset =
  Job.meta
    {
      Job.benchmark;
      machine;
      dataset;
      strategy;
      method_;
      params = rating_params;
      threshold;
      seed;
      start;
      faults;
    }

let tune ?(seed = 11) ?(strategy = Strategy.Ie) ?(rating_params = Rating.default_params)
    ?(threshold = 0.005) ?compile ?pool ?method_ ?store ?start ?kb ?faults ?(retries = 2)
    ?progress (benchmark : Benchmark.t) machine dataset =
  if retries < 0 then invalid_arg "Driver.tune: retries must be >= 0";
  (* Tracing is observational only: spans and counters are emitted on
     the side and nothing below ever reads the tracer back, so a traced
     run computes bit-identical results to an untraced one. *)
  let tune_span =
    Peak_obs.begin_span ~cat:"tune"
      (Printf.sprintf "tune:%s:%s:%s" benchmark.Benchmark.name machine.Machine.name
         (Trace.dataset_name dataset))
  in
  Fun.protect ~finally:(fun () -> Peak_obs.end_span tune_span) @@ fun () ->
  (* rating spans begun on pool domains attach to the phase that
     submitted their batch; the ref is only ever written between
     batches, so workers read a stable value *)
  let span_parent = ref tune_span in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace dataset ~seed in
  let profile =
    Peak_obs.with_span ~parent:tune_span ~cat:"phase.profile" "profile" (fun _ ->
        Profile.run ~seed:(seed + 1) tsec trace machine)
  in
  let advice = Consultant.advise tsec profile in
  (* [method_] forces a single-entry chain (no fallback, no probes — a
     forced run is bit-identical to the pre-fallback driver); omitted
     means "auto": walk the consultant's applicable methods with the §3
     convergence probe below. *)
  let chain =
    match method_ with Some m -> [ m ] | None -> advice.Consultant.applicable
  in
  let non_ts = non_ts_cycles_of benchmark profile in
  let runner = Runner.create ~seed:(seed + 2) tsec trace machine in
  (* Parallel rating bookkeeping: each concurrently-rated candidate runs
     on its own deterministically-seeded runner; its consumption is folded
     back into these totals in submission order after the batch joins, so
     the aggregate is bit-identical for every domain count. *)
  let extra_cycles = ref 0.0 in
  let extra_invocations = ref 0 in
  let extra_passes = ref 0 in
  let account (inv, p, cyc) =
    extra_invocations := !extra_invocations + inv;
    extra_passes := !extra_passes + p;
    extra_cycles := !extra_cycles +. cyc
  in
  (* Per-method metrics (result.json v4): ratings produced and
     invocations consumed, tallied at the same submission-order fold
     positions as [account] — so the block is a pure function of the
     rating outcomes, identical for traced/untraced, -j 1/-j N and
     resumed runs. *)
  let method_tally : (string, int * int) Hashtbl.t = Hashtbl.create 4 in
  let tally mname inv =
    let r, i =
      match Hashtbl.find_opt method_tally mname with Some x -> x | None -> (0, 0)
    in
    Hashtbl.replace method_tally mname (r + 1, i + inv)
  in
  (* Progress reporting rides the same submission-order fold as [tally]:
     [ratings] counts every rating folded into the session (store
     replays included), [fresh] only the freshly computed ones.  The
     callback runs on the submitting domain, outside any pool worker,
     and may raise to abort the session — the store journal is already
     consistent at every callback point, so an aborted session resumes
     cleanly. *)
  let ratings_done = ref 0 in
  let fresh_done = ref 0 in
  let note_progress fresh =
    incr ratings_done;
    if fresh then incr fresh_done;
    match progress with
    | None -> ()
    | Some f -> f ~ratings:!ratings_done ~fresh:!fresh_done
  in
  let now () = Runner.tuning_cycles runner +. !extra_cycles in
  (* the Remote Optimizer of Figure 6: versions must be compiled before
     they can be swapped in; Local blocks tuning, Remote overlaps *)
  let optimizer =
    Option.map (fun (mode, seconds) -> Optimizer.create ~compile_seconds:seconds mode machine)
      compile
  in
  let await_compiled config =
    match optimizer with
    | None -> ()
    | Some opt ->
        let stall = Optimizer.stall_for opt ~now:(now ()) config in
        if stall > 0.0 then begin
          match pool with
          | None -> Runner.charge_overhead runner stall
          | Some _ -> extra_cycles := !extra_cycles +. stall
        end
  in
  let prepare configs =
    match optimizer with
    | None -> ()
    | Some opt -> List.iter (fun c -> Optimizer.request opt ~now:(now ()) c) configs
  in
  let versions = Hashtbl.create 64 in
  let version config =
    match Hashtbl.find_opt versions config with
    | Some v -> v
    | None ->
        await_compiled config;
        let v = Version.compile machine tsec.Tsection.features config in
        Hashtbl.add versions config v;
        v
  in
  let params = rating_params in
  (* Search start configuration: an explicit [start] wins; otherwise a
     store session's recorded start (so a resumed — possibly
     warm-started — session continues from its original start); then
     the knowledge base's top recommendation; -O3 when nothing else
     applies.  Store-backed callers who want a KB warm start must pass
     it as an explicit [start] recorded in the session meta (as the CLI
     does), so a resume never depends on re-supplying the KB. *)
  let start =
    match (start, store) with
    | Some s, _ -> s
    | None, Some session -> (Peak_store.Session.meta session).Peak_store.Codec.m_start
    | None, None -> (
        match kb with
        | None -> Optconfig.o3
        | Some kb -> (
            match Knowledge.recommend_start kb benchmark machine with
            | r :: _ -> r.Peak_store.Kb.rec_config
            | [] -> Optconfig.o3))
  in
  (* ---------------- persistent store hooks ---------------------------
     A stored rating replays the value, the convergence flag (what the
     fallback probes decide on) and the consumed
     invocations/passes/cycles, folded back at the same submission-order
     position a fresh rating would occupy — which keeps the tuning-time
     ledger of a resumed session bit-identical to an uninterrupted
     one. *)
  let store_base_key base =
    match store with None -> "-" | Some _ -> Optconfig.digest base
  in
  let store_find ~mname ~base ~idx config =
    match store with
    | None -> None
    | Some s ->
        Peak_store.Session.find s ~method_:mname ~base ~idx config
        |> Option.map (fun (e, conv, (u : Peak_store.Codec.consumption), fail, job_retries) ->
               (e, conv, (u.Peak_store.Codec.c_invocations, u.c_passes, u.c_cycles), fail, job_retries))
  in
  let store_record ~mname ~base ~idx config (eval, converged, (inv, p, cyc), fail, job_retries) =
    match store with
    | None -> ()
    | Some s ->
        Peak_store.Session.record s ~method_:mname ~base ~idx ~config ~eval ~converged ?fail
          ~retries:job_retries
          ~used:{ Peak_store.Codec.c_invocations = inv; c_passes = p; c_cycles = cyc }
          ()
  in
  (* ---------------- sequential rating (one shared runner) ------------ *)
  let sequential_relative prepared eval_cache mname : Search.relative =
    (* the shared runner's ledger is simulated (cycle counts), so the
       per-rating invocation delta is deterministic *)
    let tallied f =
      let before = Runner.invocations_consumed runner in
      let e = f () in
      tally mname (Runner.invocations_consumed runner - before);
      note_progress true;
      e
    in
    let eval_with f config =
      match Hashtbl.find_opt eval_cache config with
      | Some e -> e
      | None ->
          let e = f config in
          Hashtbl.add eval_cache config e;
          e
    in
    match prepared with
    | Method.Relative { rate; _ } ->
        fun ~base candidate ->
          tallied (fun () ->
              (rate runner ~base:(version base) (version candidate)).Rating.eval)
    | Method.Absolute rate ->
        let eval =
          eval_with (fun c -> tallied (fun () -> (rate runner (version c)).Rating.eval))
        in
        fun ~base candidate -> eval candidate /. eval base
  in
  (* ---------------- parallel rating (one runner per candidate) ------- *)
  (* Candidate seeds mix the experiment seed, the candidate's index in
     its batch and the configuration identity, so a rating depends only
     on (seed, idx, config) — never on which domain ran it or on what was
     rated before it.  That is what makes [~domains:1] and [~domains:4]
     produce bit-identical searches. *)
  let job_seed ?(base_hash = 0) ~idx config =
    seed + ((idx + 2) * 1_000_003) + (Optconfig.hash config * 8191) + (base_hash * 131)
  in
  let fresh_runner ?fault_attempt jseed =
    let trace = benchmark.Benchmark.trace dataset ~seed in
    Runner.create ~seed:jseed ?faults ?fault_attempt tsec trace machine
  in
  let consumption r = (Runner.invocations_consumed r, Runner.passes_started r, Runner.tuning_cycles r) in
  let deterministic = Option.is_some pool || Option.is_some store || Option.is_some faults in
  (* ---------------- fault tolerance --------------------------------
     The start configuration is protected (tuning must be able to
     finish, and the differential oracle needs an uncorrupted anchor);
     every other configuration is validated against the base version's
     output digest before it is rated, and crash/hang/transient
     failures are retried on fresh runners — the attempt ordinal redraws
     the plan's transient decisions — up to [retries] times.  A config
     still failing, or producing wrong output, is quarantined: its eval
     is [+infinity] (elimination searches then never adopt it, and FF
     filters non-finite ratings out of its effect estimates), and it is
     reported in submission order.  All decisions are keyed on config
     identity and attempt ordinal, never on draw order, so fault-tolerant
     runs keep the -j 1/2/4 and kill/resume bit-identity guarantees. *)
  let oracle =
    match faults with
    | None -> None
    | Some plan ->
        Peak_obs.with_span ~parent:tune_span ~cat:"phase.oracle" "oracle" @@ fun _ ->
        Peak_sim.Fault.protect plan (Optconfig.digest start);
        let r = fresh_runner (job_seed ~idx:(-2) start) in
        let d = Runner.output_digest r (version start) in
        account (consumption r);
        Some d
  in
  let quarantine_tbl = Hashtbl.create 8 in
  let quarantined = ref [] in
  let total_retries = ref 0 in
  (* folded in submission order by the rating loops below, so the
     quarantine list and retry total are deterministic too *)
  let note_outcome config (fail, job_retries) =
    total_retries := !total_retries + job_retries;
    if job_retries > 0 then Peak_obs.count ~n:job_retries "driver.fault_retries";
    match fail with
    | None -> ()
    | Some reason ->
        let d = Optconfig.digest config in
        if not (Hashtbl.mem quarantine_tbl d) then begin
          Hashtbl.add quarantine_tbl d reason;
          Peak_obs.count "driver.quarantined";
          quarantined := (config, reason) :: !quarantined
        end
  in
  (* One rating job: validate against the oracle, rate, retry failures.
     Returns (eval, converged, total consumption, fail reason, retries
     used) — the exact shape the store journals, so a replayed job is
     indistinguishable from a fresh one. *)
  let run_rated ~mname ~jseed (v : Version.t) rate_fn =
    (* span names are deterministic — method, config digest, attempt
       ordinal — so the traces of two runs of the same session differ
       only in timestamps *)
    let span_name attempt =
      Printf.sprintf "rate:%s:%s:a%d" mname (Optconfig.digest v.Version.config) attempt
    in
    match faults with
    | None ->
        Peak_obs.with_span ~parent:!span_parent ~cat:"rate" (span_name 0) @@ fun _ ->
        let r = fresh_runner jseed in
        let rating = rate_fn r in
        (rating.Rating.eval, rating.Rating.converged, consumption r, None, 0)
    | Some _ ->
        let sum (i1, p1, c1) (i2, p2, c2) = (i1 + i2, p1 + p2, c1 +. c2) in
        let rec go attempt used =
          let sid = Peak_obs.begin_span ~parent:!span_parent ~cat:"rate" (span_name attempt) in
          let r = fresh_runner ~fault_attempt:attempt jseed in
          let outcome =
            match
              match oracle with
              | Some d when not (Int64.equal (Runner.output_digest r v) d) -> `Wrong
              | _ -> `Rated (rate_fn r)
            with
            | o -> o
            | exception Runner.Failed { failure; _ } -> `Failed failure
          in
          let used = sum used (consumption r) in
          match outcome with
          | `Rated rating ->
              Peak_obs.end_span ~args:[ ("outcome", "rated") ] sid;
              (rating.Rating.eval, rating.Rating.converged, used, None, attempt)
          | `Wrong ->
              Peak_obs.end_span ~args:[ ("outcome", "wrong-output") ] sid;
              (infinity, true, used, Some "wrong-output", attempt)
          | `Failed failure ->
              let reason =
                match failure with Runner.Crashed -> "crashed" | Runner.Hung -> "hung"
              in
              if attempt >= retries then begin
                Peak_obs.end_span ~args:[ ("outcome", reason) ] sid;
                (infinity, true, used, Some reason, attempt)
              end
              else begin
                Peak_obs.end_span ~args:[ ("outcome", reason ^ ":retry") ] sid;
                go (attempt + 1) used
              end
        in
        go 0 (0, 0, 0.0)
  in
  (* [pmap] is how a batch of rating jobs runs: Pool.map on a domain
     pool, plain List.map when a store demands the deterministic
     per-candidate scheme without a pool.  Either way every job is a
     pure function of (seed, idx, config[, base]), which is what lets a
     stored rating stand in for a fresh one bit-for-bit. *)
  let pmap f jobs =
    match pool with Some p -> Peak_util.Pool.map p f jobs | None -> List.map f jobs
  in
  let deterministic_rating prepared eval_cache mname :
      Search.relative * Search.rate_many option =
    let take q =
      match !q with
      | hit :: rest ->
          q := rest;
          hit
      | [] -> assert false
    in
    match prepared with
    | Method.Absolute rate ->
        (* compile caller-side (the versions table is not shared across
           domains), dispatch only configurations missing from both the
           eval cache and the store, keeping the first occurrence of a
           duplicate *)
        let ensure idxed =
          let seen = Hashtbl.create 8 in
          let work =
            List.filter_map
              (fun (idx, c) ->
                if Hashtbl.mem eval_cache c || Hashtbl.mem seen c then None
                else begin
                  Hashtbl.add seen c ();
                  Some (idx, c, store_find ~mname ~base:"-" ~idx c)
                end)
              idxed
          in
          let jobs =
            List.filter_map
              (fun (idx, c, stored) ->
                if Option.is_none stored then Some (idx, version c) else None)
              work
          in
          let results =
            pmap
              (fun (idx, (v : Version.t)) ->
                run_rated ~mname ~jseed:(job_seed ~idx v.Version.config) v (fun r -> rate r v))
              jobs
          in
          let q = ref results in
          List.iter
            (fun (idx, c, stored) ->
              let e, _converged, used, fail, job_retries =
                match stored with
                | Some hit -> hit
                | None ->
                    let hit = take q in
                    store_record ~mname ~base:"-" ~idx c hit;
                    hit
              in
              account used;
              (let inv, _, _ = used in
               tally mname inv);
              note_progress (Option.is_none stored);
              note_outcome c (fail, job_retries);
              Hashtbl.replace eval_cache c e)
            work
        in
        let rate_many : Search.rate_many =
         fun ~base candidates ->
          ensure ((-1, base) :: List.mapi (fun i c -> (i, c)) candidates);
          let eval_base = Hashtbl.find eval_cache base in
          List.map (fun c -> Hashtbl.find eval_cache c /. eval_base) candidates
        in
        let relative : Search.relative = (fun ~base c -> List.hd (rate_many ~base [ c ])) in
        (relative, Some rate_many)
    | Method.Relative { rate; _ } ->
        let rate_many : Search.rate_many =
         fun ~base candidates ->
          let vb = version base in
          let base_hash = Optconfig.hash base in
          let base_key = store_base_key base in
          let work =
            List.mapi (fun i c -> (i, c, store_find ~mname ~base:base_key ~idx:i c)) candidates
          in
          let jobs =
            List.filter_map
              (fun (idx, c, stored) ->
                if Option.is_none stored then Some (idx, version c) else None)
              work
          in
          let results =
            pmap
              (fun (idx, (v : Version.t)) ->
                run_rated ~mname
                  ~jseed:(job_seed ~base_hash ~idx v.Version.config)
                  v
                  (fun r -> rate r ~base:vb v))
              jobs
          in
          let q = ref results in
          List.map
            (fun (idx, c, stored) ->
              let e, _converged, used, fail, job_retries =
                match stored with
                | Some hit -> hit
                | None ->
                    let hit = take q in
                    store_record ~mname ~base:base_key ~idx c hit;
                    hit
              in
              account used;
              (let inv, _, _ = used in
               tally mname inv);
              note_progress (Option.is_none stored);
              note_outcome c (fail, job_retries);
              e)
            work
        in
        let relative : Search.relative = (fun ~base c -> List.hd (rate_many ~base [ c ])) in
        (relative, Some rate_many)
  in
  (* ---------------- §3 method fallback ------------------------------
     "If the system cannot achieve enough accuracy ... within some
     number of invocations, it switches to the next applicable rating
     method."  Before committing to a method (except the chain's last —
     there is nothing to fall back to), probe it by rating the start
     configuration once; a non-converged (or sample-less) probe
     abandons the method.  For absolute methods the probe is exactly
     the base rating the search's first batch would perform (same
     deterministic seed, same store key), so a converged probe is
     cached and the committed run is bit-identical to forcing that
     method.  Probes are recorded in the store with their convergence
     flag, so a resumed session replays every fallback decision. *)
  let probe prepared eval_cache mname =
    match prepared with
    | Method.Relative _ -> true
    | Method.Absolute rate ->
        if deterministic then begin
          let stored_probe = store_find ~mname ~base:"-" ~idx:(-1) start in
          let eval, converged, used, _fail, _retries =
            match stored_probe with
            | Some hit -> hit
            | None ->
                let v = version start in
                let r = fresh_runner (job_seed ~idx:(-1) start) in
                let eval, converged, fail =
                  (* the probe is exactly the search's base rating, so
                     with faults it consumes the same oracle-check
                     invocation a regular job does ([start] is
                     protected — the check cannot fail) *)
                  match
                    if Option.is_some faults then ignore (Runner.output_digest r v);
                    rate r v
                  with
                  | rating -> (rating.Rating.eval, rating.Rating.converged, None)
                  | exception Rating.No_samples _ ->
                      (* journaled as an infinite-eval sentinel with a
                         reason, never as NaN: codec v4 rejects NaN
                         ratings, and the probe path only consults the
                         convergence flag on replay *)
                      (infinity, false, Some "no-samples")
                in
                let hit = (eval, converged, consumption r, fail, 0) in
                store_record ~mname ~base:"-" ~idx:(-1) start hit;
                hit
          in
          account used;
          (let inv, _, _ = used in
           tally mname inv);
          note_progress (Option.is_none stored_probe);
          if converged then Hashtbl.replace eval_cache start eval;
          converged
        end
        else begin
          (* the shared runner consumes the probe's invocations in
             stream order, charging the attempt naturally *)
          let before = Runner.invocations_consumed runner in
          let verdict =
            match rate runner (version start) with
            | rating when rating.Rating.converged ->
                Hashtbl.replace eval_cache start rating.Rating.eval;
                true
            | _ -> false
            | exception Rating.No_samples _ -> false
          in
          tally mname (Runner.invocations_consumed runner - before);
          note_progress true;
          verdict
        end
  in
  let failed_attempts = ref [] in
  let rec select = function
    | [] ->
        raise
          (Method.Not_applicable
             (Printf.sprintf "Driver.tune: no applicable rating method for %s"
                benchmark.Benchmark.name))
    | m :: rest ->
        let prepared = Method.prepare ~params ~non_ts_cycles:non_ts m profile in
        let eval_cache = Hashtbl.create 64 in
        let committed =
          rest = []
          || begin
               let pid =
                 Peak_obs.begin_span ~parent:tune_span ~cat:"probe"
                   ("probe:" ^ Method.name m)
               in
               let ok = probe prepared eval_cache (Method.name m) in
               Peak_obs.end_span
                 ~args:[ ("outcome", if ok then "commit" else "abandon") ]
                 pid;
               ok
             end
        in
        if committed then (m, prepared, eval_cache)
        else begin
          failed_attempts :=
            { Method.a_method = m; a_converged = false; a_ratings = 1 } :: !failed_attempts;
          select rest
        end
  in
  let method_, prepared, eval_cache = select chain in
  let relative, rate_many =
    if deterministic then deterministic_rating prepared eval_cache (Method.name method_)
    else (sequential_relative prepared eval_cache (Method.name method_), None)
  in
  (* Staged screening trains on the store's rating index when one is
     attached.  The index is rewritten only by [Session.gc] — never by
     live rating — so a killed-and-resumed session reads the identical
     corpus and replays its stage transitions bit-identically.  Rows
     are restricted to this benchmark/machine and folded in the index's
     deterministic sorted order. *)
  let corpus =
    match (strategy, store) with
    | Strategy.Staged, Some session -> (
        let bench_name = benchmark.Benchmark.name in
        let machine_name = machine.Machine.name in
        let index_path =
          Filename.concat (Peak_store.Session.store_dir session) "index.json"
        in
        match Peak_store.Index.load index_path with
        | Error _ -> []
        | Ok index ->
            let rows =
              Peak_store.Index.fold
                (fun (e : Peak_store.Index.entry) acc ->
                  if
                    e.Peak_store.Index.key.Peak_store.Index.k_benchmark = bench_name
                    && e.Peak_store.Index.key.Peak_store.Index.k_machine = machine_name
                  then (e.Peak_store.Index.config, e.Peak_store.Index.eval) :: acc
                  else acc)
                index []
            in
            List.rev rows)
    | _ -> []
  in
  (* The knowledge base contributes its rows for this program too: a
     KB row's 1/speedup is the config's relative time vs the donor
     session's start, the same scale as an index eval.  KB rows are in
     canonical order, so the corpus stays deterministic; a resumed
     store session only sees them if the caller re-supplies the same
     KB (the CLI records the KB start in the session meta instead). *)
  let corpus =
    match (strategy, kb) with
    | Strategy.Staged, Some kb ->
        let bench_name = String.lowercase_ascii benchmark.Benchmark.name in
        let machine_name = String.lowercase_ascii machine.Machine.name in
        corpus
        @ List.filter_map
            (fun (r : Peak_store.Kb.row) ->
              if
                r.Peak_store.Kb.rw_benchmark = bench_name
                && r.Peak_store.Kb.rw_machine = machine_name
              then Some (r.Peak_store.Kb.rw_config, 1.0 /. r.Peak_store.Kb.rw_speedup)
              else None)
            (Peak_store.Kb.rows kb)
    | _ -> corpus
  in
  if corpus <> [] then
    Peak_obs.count ~n:(List.length corpus) ("search." ^ Strategy.key strategy ^ ".corpus");
  let best_config, search_stats, stages =
    let sid =
      Peak_obs.begin_span ~parent:tune_span ~cat:"phase.search"
        ("search:" ^ Strategy.key strategy)
    in
    span_parent := sid;
    Fun.protect
      ~finally:(fun () ->
        span_parent := tune_span;
        Peak_obs.end_span sid)
    @@ fun () ->
    (* each strategy stage gets its own span nested under the search
       span; rating spans begun inside the stage attach to it via
       [span_parent] *)
    let stage_span = ref None in
    let enter_stage k label =
      let s =
        Peak_obs.begin_span ~parent:sid ~cat:"phase.search.stage"
          (Printf.sprintf "search:%s:stage%d" (Strategy.key strategy) k)
      in
      Peak_obs.count (Printf.sprintf "search.%s.%s" (Strategy.key strategy) label);
      stage_span := Some s;
      span_parent := s
    in
    let leave_stage () =
      (match !stage_span with Some s -> Peak_obs.end_span s | None -> ());
      stage_span := None;
      span_parent := sid
    in
    let ctx =
      Strategy.make_ctx ~threshold ~seed ~prepare ?rate_many ~corpus ~enter_stage
        ~leave_stage ~relative ()
    in
    Strategy.run strategy ctx start
  in
  let attempts =
    List.rev
      ({
         Method.a_method = method_;
         a_converged = true;
         a_ratings = search_stats.Search.ratings;
       }
      :: !failed_attempts)
  in
  let passes = Runner.passes_started runner + !extra_passes in
  let tuning_cycles = now () +. (float_of_int passes *. non_ts) in
  let invocations = Runner.invocations_consumed runner + !extra_invocations in
  let quarantined = List.rev !quarantined in
  let metrics =
    {
      Peak_store.Codec.x_methods =
        List.filter_map
          (fun m ->
            let n = Method.name m in
            Option.map
              (fun (ratings, inv) ->
                { Peak_store.Codec.mm_method = n; mm_ratings = ratings; mm_invocations = inv })
              (Hashtbl.find_opt method_tally n))
          Method.all;
      x_quarantined = List.length quarantined;
      x_retries = !total_retries;
      x_invocations = invocations;
      x_cycles = tuning_cycles;
    }
  in
  let result =
    {
      benchmark;
      machine;
      dataset;
      method_used = method_;
      attempts;
      strategy;
      stages;
      best_config;
      search_stats;
      tuning_cycles;
      tuning_seconds = Machine.seconds_of_cycles machine tuning_cycles;
      passes;
      invocations;
      quarantined;
      fault_retries = !total_retries;
      metrics;
      profile;
      advice;
    }
  in
  Option.iter
    (fun s -> Peak_store.Session.complete s (result_summary result))
    store;
  result

let tune_suite ?(seed = 11) ?strategy ?(rating_params = Rating.default_params)
    ?(threshold = 0.005) ?method_ ?(domains = 1) ?store_dir ?faults ?retries benchmarks machine
    dataset =
  (* Each benchmark gets its own session (own journal file); the
     journal writers themselves are mutex-serialized, so concurrent
     domain runners log safely through them. *)
  let open_session benchmark =
    match store_dir with
    | None -> None
    | Some dir ->
        let meta =
          session_meta ?method_ ?strategy ~rating_params ~threshold ~seed ?faults benchmark
            machine dataset
        in
        (match Peak_store.Session.open_ ~dir ~meta () with
        | Ok s -> Some s
        | Error e -> failwith ("tuning store: " ^ e))
  in
  Peak_obs.with_span ~cat:"suite"
    (Printf.sprintf "suite:%d-benchmarks:j%d" (List.length benchmarks) domains)
  @@ fun _ ->
  Peak_util.Pool.run ~domains (fun pool ->
      Peak_util.Pool.map pool
        (fun benchmark ->
          let store = open_session benchmark in
          Fun.protect
            ~finally:(fun () -> Option.iter Peak_store.Session.close store)
            (fun () ->
              tune ~seed ?strategy ~rating_params ~threshold ~pool ?method_ ?store ?faults
                ?retries benchmark machine dataset))
        benchmarks)

(* Deterministic evaluation: same machinery, but a noise-free machine and
   no cache-flushing perturbations. *)
let ts_pass_cycles ?(seed = 5) (benchmark : Benchmark.t) machine config dataset =
  let machine = { machine with Machine.noise_sigma = 0.0; spike_probability = 0.0 } in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace dataset ~seed in
  let runner = Runner.create ~seed ~context_switch_rate:0.0 tsec trace machine in
  let v = Version.compile machine tsec.Tsection.features config in
  Runner.run_full_pass runner v

let evaluate_program_cycles ?(seed = 5) benchmark machine config dataset =
  let ts = ts_pass_cycles ~seed benchmark machine config dataset in
  let ts_o3 =
    if Optconfig.equal config Optconfig.o3 then ts
    else ts_pass_cycles ~seed benchmark machine Optconfig.o3 dataset
  in
  let share = benchmark.Benchmark.time_share in
  ts +. (ts_o3 *. (1.0 -. share) /. share)

let improvement_pct ?(seed = 5) benchmark machine ~best dataset =
  let t_best = evaluate_program_cycles ~seed benchmark machine best dataset in
  let t_o3 = evaluate_program_cycles ~seed benchmark machine Optconfig.o3 dataset in
  ((t_o3 /. t_best) -. 1.0) *. 100.0
