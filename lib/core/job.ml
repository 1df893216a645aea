open Peak_machine
open Peak_workload

let ( let* ) r f = Result.bind r f

type t = {
  benchmark : Benchmark.t;
  machine : Machine.t;
  dataset : Trace.dataset;
  strategy : Strategy.t;
  method_ : Method.t option;
  params : Rating.params;
  threshold : float;
  seed : int;
  start : Peak_compiler.Optconfig.t;
  faults : Peak_sim.Fault.t option;
}

let benchmark_of_string name =
  match Registry.by_name name with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %s (valid: %s)" name
           (String.concat ", "
              (List.sort String.compare (List.map (fun b -> b.Benchmark.name) Registry.all))))

let machine_of_string name =
  match Machine.by_name name with
  | Some m -> Ok m
  | None -> (
      match String.lowercase_ascii name with
      | "sparc2" | "sparc" -> Ok Machine.sparc2
      | "pentium4" | "p4" -> Ok Machine.pentium4
      | _ -> Error (Printf.sprintf "unknown machine %s (sparc2 | pentium4)" name))

let dataset_of_string name =
  match String.lowercase_ascii name with
  | "train" -> Ok Trace.Train
  | "ref" -> Ok Trace.Ref
  | other -> Error ("unknown dataset " ^ other ^ " (train | ref)")

let method_of_string name =
  if String.lowercase_ascii name = "auto" then Ok None
  else
    match Method.of_string name with
    | Some m -> Ok (Some m)
    | None ->
        Error
          (Printf.sprintf "unknown rating method %s (valid: auto, %s)" name
             (String.concat ", " Method.keys))

let params_of_cap = function
  | None -> Ok Rating.default_params
  | Some n when n >= 1 -> Ok { Rating.default_params with Rating.max_invocations = n }
  | Some _ -> Error "rating cap must be >= 1"

let meta j : Peak_store.Codec.session_meta =
  let benchmark = j.benchmark.Benchmark.name and machine = j.machine.Machine.name in
  let dataset = Trace.dataset_name j.dataset and search = Strategy.key j.strategy in
  let method_ = match j.method_ with Some m -> Method.key m | None -> "auto" in
  {
    Peak_store.Codec.m_id =
      Peak_store.Session.id_for ~benchmark ~machine ~dataset ~search ~method_ ~seed:j.seed;
    m_benchmark = benchmark;
    m_machine = machine;
    m_dataset = dataset;
    m_search = search;
    m_seed = j.seed;
    m_threshold = j.threshold;
    m_params = Rating.params_signature j.params;
    m_method = method_;
    m_start = j.start;
    m_faults = (match j.faults with Some p -> Peak_sim.Fault.to_string p | None -> "-");
  }

let of_meta (m : Peak_store.Codec.session_meta) =
  let* benchmark = benchmark_of_string m.Peak_store.Codec.m_benchmark in
  let* machine = machine_of_string m.Peak_store.Codec.m_machine in
  let* dataset = dataset_of_string m.Peak_store.Codec.m_dataset in
  let* strategy = Strategy.of_string m.Peak_store.Codec.m_search in
  let* method_ = method_of_string m.Peak_store.Codec.m_method in
  let* params =
    match Rating.params_of_signature m.Peak_store.Codec.m_params with
    | Some p -> Ok p
    | None -> Error ("session has unreadable rating parameters: " ^ m.Peak_store.Codec.m_params)
  in
  (* a fault-injected session resumes under the same plan, so its
     quarantine decisions replay *)
  let* faults =
    match m.Peak_store.Codec.m_faults with
    | "-" -> Ok None
    | spec -> (
        match Peak_sim.Fault.of_string spec with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error ("session has an unreadable fault plan: " ^ e))
  in
  Ok
    {
      benchmark;
      machine;
      dataset;
      strategy;
      method_;
      params;
      threshold = m.Peak_store.Codec.m_threshold;
      seed = m.Peak_store.Codec.m_seed;
      start = m.Peak_store.Codec.m_start;
      faults;
    }
