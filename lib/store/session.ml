open Peak_compiler

let ( let* ) r f = Result.bind r f

let ( // ) = Filename.concat

let sanitize s =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9' | '-' | '.') as c -> c
      | _ -> '_')
    s

let id_for ~benchmark ~machine ~dataset ~search ~method_ ~seed =
  sanitize (Printf.sprintf "%s-%s-%s-%s-%s-s%d" benchmark machine dataset search method_ seed)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sessions_dir dir = dir // "sessions"
let session_dir dir id = sessions_dir dir // id
let meta_path dir id = session_dir dir id // "meta.json"
let journal_path dir id = session_dir dir id // "journal.jsonl"
let result_path dir id = session_dir dir id // "result.json"
let writer_path dir id = session_dir dir id // ".writer"
let index_path dir = dir // "index.json"

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      output_char oc '\n');
  Sys.rename tmp path

(* ---------------- writer liveness ----------------
   A session being written carries a [.writer] pidfile (written once the
   journal is open, removed on close).  Liveness is the pid still
   existing: kill 0 probes without signalling.  EPERM means the process
   exists but is someone else's — still alive.  A pidfile left by a
   crashed writer is stale and silently reclaimed on the next open. *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception _ -> false

let writer_pid dir id =
  let path = writer_path dir id in
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    let line =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try input_line ic with End_of_file -> "")
    in
    int_of_string_opt (String.trim line)

let live ~dir ~id =
  match writer_pid dir id with Some pid -> pid_alive pid | None -> false

let read_json_file path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    let ic = open_in path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Json.of_string (String.trim content)

(* ---------------- context keys ---------------- *)

let ctx_digest (m : Codec.session_meta) ~method_ ~base ~idx =
  Codec.fnv64
    (Printf.sprintf "s%d|%s|%s|%s|%s|i%d" m.Codec.m_seed m.Codec.m_dataset m.Codec.m_params
       method_ base idx)

let cache_key ~ctx ~config_digest = ctx ^ ":" ^ config_digest

(* ---------------- the handle ---------------- *)

type t = {
  dir : string;
  mutable meta : Codec.session_meta;
  journal : Journal.t;
  cache : (string, float * bool * Codec.consumption * string option * int) Hashtbl.t;
  mutable loaded : int;
}

let meta t = t.meta
let store_dir t = t.dir
let loaded_events t = t.loaded

let meta_compatible (a : Codec.session_meta) (b : Codec.session_meta) =
  let mismatch field va vb =
    if va = vb then None else Some (Printf.sprintf "%s: stored %s, requested %s" field va vb)
  in
  List.filter_map Fun.id
    [
      mismatch "benchmark" a.Codec.m_benchmark b.Codec.m_benchmark;
      mismatch "machine" a.Codec.m_machine b.Codec.m_machine;
      mismatch "dataset" a.Codec.m_dataset b.Codec.m_dataset;
      mismatch "search" a.Codec.m_search b.Codec.m_search;
      mismatch "seed" (string_of_int a.Codec.m_seed) (string_of_int b.Codec.m_seed);
      (* the threshold steers search decisions, so a resume under another
         one would match neither uninterrupted run *)
      mismatch "threshold"
        (Printf.sprintf "%.17g" a.Codec.m_threshold)
        (Printf.sprintf "%.17g" b.Codec.m_threshold);
      mismatch "method" a.Codec.m_method b.Codec.m_method;
      mismatch "rating params" a.Codec.m_params b.Codec.m_params;
      mismatch "fault plan" a.Codec.m_faults b.Codec.m_faults;
    ]

let replay_into cache path =
  let records, _dropped = Journal.read path in
  let n = ref 0 in
  List.iter
    (fun record ->
      match Codec.event_of_json record with
      | Ok e ->
          incr n;
          Hashtbl.replace cache
            (cache_key ~ctx:e.Codec.e_ctx ~config_digest:(Optconfig.digest e.Codec.e_config))
            (e.Codec.e_eval, e.Codec.e_converged, e.Codec.e_used, e.Codec.e_fail, e.Codec.e_retries)
      | Error _ -> ())
    records;
  !n

let open_ ?tear ~dir ~(meta : Codec.session_meta) () =
  let id = meta.Codec.m_id in
  match mkdir_p (session_dir dir id) with
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, p) -> Error (Printf.sprintf "%s: %s" p (Unix.error_message e))
  | () ->
      let* effective =
        if Sys.file_exists (meta_path dir id) then
          let* v = read_json_file (meta_path dir id) in
          let* stored = Codec.session_meta_of_json v in
          match meta_compatible stored meta with
          | [] -> Ok stored
          | problems ->
              Error
                (Printf.sprintf "session %s exists with different parameters (%s)" id
                   (String.concat "; " problems))
        else begin
          write_atomic (meta_path dir id) (Json.to_string (Codec.session_meta_to_json meta));
          Ok meta
        end
      in
      let* () =
        match writer_pid dir id with
        | None -> Ok ()
        | Some pid when pid = Unix.getpid () ->
            Error (Printf.sprintf "session %s is already open in this process" id)
        | Some pid when pid_alive pid ->
            Error (Printf.sprintf "session %s is held by a live writer (pid %d)" id pid)
        | Some _ ->
            (* crashed writer; reclaim *)
            (try Sys.remove (writer_path dir id) with Sys_error _ -> ());
            Ok ()
      in
      let cache = Hashtbl.create 256 in
      let loaded = replay_into cache (journal_path dir id) in
      let journal = Journal.open_append ?tear (journal_path dir id) in
      write_atomic (writer_path dir id) (string_of_int (Unix.getpid ()));
      Ok { dir; meta = effective; journal; cache; loaded }

let find t ~method_ ~base ~idx config =
  let ctx = ctx_digest t.meta ~method_ ~base ~idx in
  Hashtbl.find_opt t.cache (cache_key ~ctx ~config_digest:(Optconfig.digest config))

let record t ~method_ ~base ~idx ~config ~eval ~converged ?fail ?(retries = 0) ~used () =
  let ctx = ctx_digest t.meta ~method_ ~base ~idx in
  let event =
    {
      Codec.e_method = method_;
      e_ctx = ctx;
      e_base = base;
      e_idx = idx;
      e_config = config;
      e_eval = eval;
      e_converged = converged;
      e_used = used;
      e_fail = fail;
      e_retries = retries;
    }
  in
  Journal.append t.journal (Codec.event_to_json event);
  Hashtbl.replace t.cache
    (cache_key ~ctx ~config_digest:(Optconfig.digest config))
    (eval, converged, used, fail, retries)

let complete t result =
  Peak_obs.count "store.completes";
  Peak_obs.timed "store.complete" @@ fun () ->
  Journal.flush t.journal;
  write_atomic
    (result_path t.dir t.meta.Codec.m_id)
    (Json.to_string (Codec.session_result_to_json result))

let close t =
  (try Sys.remove (writer_path t.dir t.meta.Codec.m_id) with Sys_error _ -> ());
  Journal.close t.journal

(* ---------------- read-only interrogation ---------------- *)

type info = {
  info_meta : Codec.session_meta;
  info_result : Codec.session_result option;
  info_events : int;
  info_dropped : int;
  info_live : bool;
}

let session_ids dir =
  let root = sessions_dir dir in
  if not (Sys.file_exists root) then []
  else
    Sys.readdir root |> Array.to_list
    |> List.filter (fun id -> Sys.is_directory (root // id))
    |> List.sort String.compare

let load_info ~dir ~id =
  let* v = read_json_file (meta_path dir id) in
  let* info_meta = Codec.session_meta_of_json v in
  let* info_result =
    if Sys.file_exists (result_path dir id) then
      let* rv = read_json_file (result_path dir id) in
      let* r = Codec.session_result_of_json rv in
      Ok (Some r)
    else Ok None
  in
  let records, info_dropped = Journal.read (journal_path dir id) in
  Ok
    {
      info_meta;
      info_result;
      info_events = List.length records;
      info_dropped;
      info_live = live ~dir ~id;
    }

let list ~dir =
  List.fold_left
    (fun acc id ->
      let* acc = acc in
      (* a session directory can exist for an instant before its
         meta.json does (mkdir, then atomic write) — tolerate the race
         when listing a store a daemon is writing to *)
      if not (Sys.file_exists (meta_path dir id)) then Ok acc
      else
        let* info =
          match load_info ~dir ~id with
          | Ok i -> Ok i
          | Error e -> Error (Printf.sprintf "session %s: %s" id e)
        in
        Ok (info :: acc))
    (Ok []) (session_ids dir)
  |> Result.map List.rev

let events ~dir ~id =
  let records, dropped = Journal.read (journal_path dir id) in
  let decoded, bad =
    List.fold_left
      (fun (decoded, bad) record ->
        match Codec.event_of_json record with
        | Ok e -> (e :: decoded, bad)
        | Error _ -> (decoded, bad + 1))
      ([], 0) records
  in
  (List.rev decoded, dropped + bad)

type gc_stats = {
  gc_sessions : int;
  gc_events : int;
  gc_dropped : int;
  gc_index_entries : int;
}

let gc ~dir =
  Peak_obs.timed "store.gc" @@ fun () ->
  let index = Index.create () in
  let* sessions, events_total, dropped_total =
    List.fold_left
      (fun acc id ->
        let* sessions, events_total, dropped_total = acc in
        let* info = load_info ~dir ~id in
        let evs, dropped = events ~dir ~id in
        (* rewrite the journal without its malformed lines *)
        if dropped > 0 then begin
          let buf = Buffer.create 4096 in
          List.iter
            (fun e ->
              Buffer.add_string buf (Json.to_string (Codec.event_to_json e));
              Buffer.add_char buf '\n')
            evs;
          let tmp = journal_path dir id ^ ".tmp" in
          let oc = open_out tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> Buffer.output_buffer oc buf);
          Sys.rename tmp (journal_path dir id)
        end;
        let m = info.info_meta in
        List.iter
          (fun (e : Codec.event) ->
            (* failed events carry a quarantine/no-samples sentinel, not
               a rating; indexing their +inf (or an old journal's NaN)
               eval would poison warm-start nearest-neighbor distances *)
            if e.Codec.e_fail = None && Float.is_finite e.Codec.e_eval then
              Index.add index
                {
                  Index.key =
                    {
                      Index.k_benchmark = m.Codec.m_benchmark;
                      k_machine = m.Codec.m_machine;
                      k_method = e.Codec.e_method;
                      k_config = Optconfig.digest e.Codec.e_config;
                      k_ctx = e.Codec.e_ctx;
                    };
                  session = id;
                  config = e.Codec.e_config;
                  eval = e.Codec.e_eval;
                  used = e.Codec.e_used;
                })
          evs;
        Ok (sessions + 1, events_total + List.length evs, dropped_total + dropped))
      (Ok (0, 0, 0))
      (session_ids dir)
  in
  (match mkdir_p dir with () -> () | exception _ -> ());
  Index.save index (index_path dir);
  Ok
    {
      gc_sessions = sessions;
      gc_events = events_total;
      gc_dropped = dropped_total;
      gc_index_entries = Index.size index;
    }

let export ~dir =
  let* infos = list ~dir in
  let session_json (i : info) =
    let evs, dropped = events ~dir ~id:i.info_meta.Codec.m_id in
    Json.Obj
      ([ ("meta", Codec.session_meta_to_json i.info_meta) ]
      @ (match i.info_result with
        | Some r -> [ ("result", Codec.session_result_to_json r) ]
        | None -> [])
      @ [
          ("dropped", Json.Int dropped);
          ("events", Json.List (List.map Codec.event_to_json evs));
        ])
  in
  Ok
    (Json.Obj
       [
         ("v", Json.Int Codec.version);
         ("t", Json.String "store");
         ("sessions", Json.List (List.map session_json infos));
       ])
