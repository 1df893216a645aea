(* Per-layer unit costs, measured from outside the program: each probe
   calls one layer's public functions on the workload's own sections
   and results and divides its wall by the calls made.  Nothing here
   instruments the libraries. *)

open Peak_workload
open Common
module Interp = Peak_ir.Interp
module Version = Peak_compiler.Version
module Optconfig = Peak_compiler.Optconfig

(* Each probe repeats its body until it has run for [min_time] and at
   least [min_calls] calls, then reports wall per call. *)
let min_time = 0.03

let per_call ?(min_calls = 1) body =
  let t0 = now () in
  let calls = ref 0 and busy = ref 0.0 in
  while !calls < min_calls || now () -. t0 < min_time do
    let n, dt = body () in
    calls := !calls + n;
    busy := !busy +. dt
  done;
  !busy /. float_of_int (max 1 !calls)

(* Costs of one section's layers. *)
type section = {
  interp_ns : float;  (** Per interpreter block step. *)
  step_us : float;  (** Per [Runner.step] of a long-lived runner. *)
  pair_us : float;  (** Per [Runner.step_pair] of a long-lived runner. *)
  fresh_us : float;
      (** What a rating pays beyond its steady steps for starting on a
          fresh trace and runner: building both and a cold class cache. *)
  steps_per_inv : float;  (** Interpreter steps per consumed invocation. *)
  memsys_ns : float;  (** Per [Memsys.charge]. *)
  cost_ns : float;  (** Per [Cost.cycles]. *)
  summarize_ns : float;  (** Per [Rating.summarize_into] of one window. *)
  compile_us : float;  (** Per [Version.compile]. *)
  ref_len : int;  (** Invocations of one Ref pass. *)
}

(* A candidate next to -O3, as batch elimination rates it. *)
let candidate = Optconfig.disable Optconfig.o3 Peak_compiler.Flags.all.(0)

let section ~seed ~inv_per_rating name =
  let b = benchmark name in
  let tsec = Peak.Tsection.make b.Benchmark.ts in
  let trace () = b.Benchmark.trace Trace.Train ~seed in
  let o3 = Version.compile machine tsec.Peak.Tsection.features Optconfig.o3 in
  let exp = Version.compile machine tsec.Peak.Tsection.features candidate in
  (* the interpreter alone, over the trace's own invocations *)
  let results = ref [] in
  let interp_ns =
    let tr = trace () in
    let env = Interp.make_env b.Benchmark.ts in
    tr.Trace.init env;
    let compiled = Interp.compile tsec.Peak.Tsection.cfg env in
    let scratch = Interp.make_scratch compiled in
    let i = ref 0 in
    1e9
    *. per_call (fun () ->
           if !i >= tr.Trace.length then begin
             tr.Trace.init env;
             i := 0
           end;
           tr.Trace.setup !i env;
           incr i;
           let (), dt = timed (fun () -> Interp.run_compiled compiled scratch) in
           if List.length !results < 8 then results := Interp.result_of_scratch compiled scratch :: !results;
           (Interp.scratch_steps scratch, dt))
  in
  (* a long-lived runner: the steady per-invocation cost *)
  let times = ref [] in
  let steady f =
    let r = Peak.Runner.create ~seed tsec (trace ()) machine in
    f r;
    1e6 *. per_call (fun () -> timed (fun () -> f r; 1))
  in
  let step_us =
    steady (fun r ->
        let s = Peak.Runner.step r o3 in
        if List.length !times < 40 then times := s.Peak.Runner.time :: !times)
  in
  let pair_us = steady (fun r -> ignore (Peak.Runner.step_pair r ~base:o3 ~experimental:exp)) in
  (* runners as the driver rates with them: a fresh trace and runner per
     rating, consuming the workload's mean invocations per rating *)
  let n = max 1 inv_per_rating in
  let steps = ref 0 and invs = ref 0 in
  let per_rating_us =
    1e6
    *. per_call (fun () ->
           let r, dt =
             timed (fun () ->
                 let r = Peak.Runner.create ~seed tsec (trace ()) machine in
                 for _ = 1 to n do
                   ignore (Peak.Runner.step r o3)
                 done;
                 r)
           in
           steps := !steps + Peak.Runner.interp_steps_hint r;
           invs := !invs + Peak.Runner.invocations_consumed r;
           (1, dt))
  in
  let accesses =
    let bytes base =
      match List.assoc_opt base b.Benchmark.ts.Peak_ir.Types.arrays with
      | Some words -> 8 * words
      | None -> 8
    in
    List.map
      (fun (r : Interp.result) ->
        List.filter_map
          (fun (base, touches) ->
            if touches > 0 then Some { Peak_machine.Memsys.base; bytes = bytes base; touches } else None)
          r.Interp.array_accesses)
      !results
  in
  let memsys = Peak_machine.Memsys.create machine in
  let memsys_ns =
    1e9
    *. per_call (fun () ->
           timed (fun () ->
               List.iter (fun a -> ignore (Peak_machine.Memsys.charge memsys a)) accesses;
               List.length accesses))
  in
  let cost_ns =
    1e9
    *. per_call (fun () ->
           timed (fun () ->
               Array.iter (fun w -> ignore (Peak_machine.Cost.cycles machine w)) o3.Version.workloads;
               Array.length o3.Version.workloads))
  in
  let scratch = Peak.Rating.make_scratch () in
  let window = !times in
  let summarize_ns =
    1e9
    *. per_call (fun () ->
           timed (fun () ->
               ignore (Peak.Rating.summarize_into scratch ~params:Peak.Rating.default_params window);
               1))
  in
  let configs =
    Array.to_list (Array.map (Optconfig.disable Optconfig.o3) Peak_compiler.Flags.all)
  in
  let compile_us =
    1e6
    *. per_call (fun () ->
           timed (fun () ->
               List.iter (fun c -> ignore (Version.compile machine tsec.Peak.Tsection.features c)) configs;
               List.length configs))
  in
  {
    interp_ns;
    step_us;
    pair_us;
    fresh_us = per_rating_us -. (float_of_int n *. step_us);
    steps_per_inv = float_of_int !steps /. float_of_int (max 1 !invs);
    memsys_ns;
    cost_ns;
    summarize_ns;
    compile_us;
    ref_len = (b.Benchmark.trace Trace.Ref ~seed).Trace.length;
  }

(* Costs of the store, wire and admission layers, on the workload's
   own session results. *)
type service = {
  record_us : float;  (** Per [Session.record], batched fsyncs included. *)
  open_ms : float;  (** Per [Session.open_] of a session with a full journal. *)
  fsync_ms : float;  (** Per journal append flushed and fsynced on its own. *)
  encode_us : float;  (** Per result encoded to [result.json] text. *)
  decode_us : float;  (** Per [result.json] text decoded. *)
  wire_encode_us : float;  (** Per result frame encoded. *)
  wire_decode_us : float;  (** Per result frame decoded. *)
  admit_us : float;  (** Per admit-and-release pair. *)
}

let service ~dir (sessions : session list) =
  let results = List.map (fun s -> s.s_result) sessions in
  let decoded =
    List.map
      (fun text ->
        match Result.bind (Peak_store.Json.of_string text) Peak_store.Codec.session_result_of_json with
        | Ok r -> r
        | Error e -> failwith ("result decode: " ^ e))
      results
  in
  let first = List.hd sessions in
  let store = Filename.concat dir "probe-store" in
  rm_rf store;
  let meta =
    Peak.Driver.session_meta ~strategy:Offline.strategy ~seed:first.s_seed (benchmark first.s_bench)
      machine Trace.Train
  in
  let used = { Peak_store.Codec.c_invocations = 40; c_passes = 1; c_cycles = 1e6 } in
  let events = 256 in
  let s = Offline.open_session ~store meta in
  let (), rec_wall =
    timed (fun () ->
        for i = 0 to events - 1 do
          Peak_store.Session.record s ~method_:"RBR" ~base:"-" ~idx:i
            ~config:
              (Optconfig.toggle Optconfig.o3
                 Peak_compiler.Flags.all.(i mod Array.length Peak_compiler.Flags.all))
            ~eval:(1.0 +. (float_of_int i /. 1000.0)) ~converged:true ~used ()
        done)
  in
  Peak_store.Session.complete s (List.hd decoded);
  Peak_store.Session.close s;
  let open_ms =
    1e3
    *. per_call ~min_calls:3 (fun () ->
           let s, dt = timed (fun () -> Offline.open_session ~store meta) in
           Peak_store.Session.close s;
           (1, dt))
  in
  let journal = Filename.concat dir "probe-journal.jsonl" in
  let fsync_ms =
    let j = Peak_store.Journal.open_append ~fsync_every:1 journal in
    Fun.protect
      ~finally:(fun () -> Peak_store.Journal.close j)
      (fun () ->
        1e3
        *. per_call ~min_calls:5 (fun () ->
               timed (fun () ->
                   Peak_store.Journal.append j (Peak_store.Json.String "probe");
                   1)))
  in
  let over xs f =
    1e6 *. per_call (fun () -> timed (fun () -> List.iter f xs; List.length xs))
  in
  let result_frame r =
    Peak_store.Json.to_string
      (Peak_serve.Wire.response_to_json
         (Peak_serve.Wire.Result_r { rr_id = meta.Peak_store.Codec.m_id; rr_result = r }))
  in
  let frames = List.map result_frame decoded in
  let adm = Peak_serve.Admission.create ~capacity:8 ~quantum:64 in
  let service =
    {
      record_us = 1e6 *. rec_wall /. float_of_int events;
      open_ms;
      fsync_ms;
      encode_us =
        over decoded (fun r ->
            ignore (Peak_store.Json.to_string (Peak_store.Codec.session_result_to_json r)));
      decode_us =
        over results (fun t ->
            ignore (Result.bind (Peak_store.Json.of_string t) Peak_store.Codec.session_result_of_json));
      wire_encode_us = over decoded (fun r -> ignore (result_frame r));
      wire_decode_us =
        over frames (fun t ->
            ignore (Result.bind (Peak_store.Json.of_string t) Peak_serve.Wire.response_of_json));
      admit_us =
        1e6
        *. per_call (fun () ->
               timed (fun () ->
                   for _ = 1 to 100 do
                     match Peak_serve.Admission.try_admit adm with
                     | Peak_serve.Admission.Admitted t -> Peak_serve.Admission.release adm t ~wall:0.1
                     | Peak_serve.Admission.Saturated _ -> ()
                   done;
                   100));
    }
  in
  rm_rf store;
  (try Sys.remove journal with Sys_error _ -> ());
  service
