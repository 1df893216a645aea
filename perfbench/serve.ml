(* The serve-mixed workload: a peak-tuned child process fed by a closed
   loop of client connections in this process.  Fresh submits write the
   store; resubmits of completed ids replay it; Stats requests ride
   along. *)

open Common
module Wire = Peak_serve.Wire
module Client = Peak_serve.Client

let benches = [| "ART"; "SWIM" |]
let cap = 40

(* The first fresh sessions, by submission index, carry the
   deterministic metrics and the in-process comparison.  Odd, so that
   the median evaluation falls among ART's evaluations rather than
   between ART's and SWIM's. *)
let prefix_len = 9

let spec ~seed k =
  {
    Wire.sb_benchmark = benches.(k mod Array.length benches);
    sb_machine = "pentium4";
    sb_dataset = "train";
    sb_search = "be";
    sb_method = "auto";
    sb_seed = session_seed ~seed ~round:0 ~slot:k;
    sb_cap = Some cap;
    sb_mode = Wire.Stream;
  }

(* ---------------- the daemon child ---------------- *)

type daemon = { pid : int; endpoint : Wire.endpoint; store : string }

(* Daemons started and not yet stopped, for [stop_all]. *)
let live = ref []

let stop_pid pid =
  live := List.filter (( <> ) pid) !live;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let stop d = stop_pid d.pid

let stop_all () = List.iter stop_pid !live

let ping endpoint =
  match Client.connect endpoint with
  | Error _ -> false
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> match Client.request c Wire.Ping with Ok Wire.Pong -> true | _ -> false)

let start ~exe ~dir ~domains ?trace () =
  rm_rf dir;
  mkdir_p dir;
  let store = Filename.concat dir "store" in
  let sock = Filename.concat dir "d.sock" in
  let args =
    [ exe; "--store"; store; "--listen"; "unix:" ^ sock; "-j"; string_of_int domains ]
    @ match trace with Some p -> [ "--trace"; p ] | None -> []
  in
  let log = Unix.openfile (Filename.concat dir "daemon.log") Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process exe (Array.of_list args) Unix.stdin log log)
  in
  live := pid :: !live;
  let endpoint = Wire.Unix_sock sock in
  let deadline = now () +. 60.0 in
  let rec wait () =
    if ping endpoint then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.002;
          wait ()
      | 0, _ ->
          stop_pid pid;
          failwith "peak-tuned did not accept a connection within 60 s"
      | _ ->
          live := List.filter (( <> ) pid) !live;
          failwith ("peak-tuned exited at start; see " ^ Filename.concat dir "daemon.log")
  in
  wait ();
  { pid; endpoint; store }

let warm_up d ~seed =
  match Client.connect d.endpoint with
  | Error e -> failwith e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.run c (Wire.Submit { (spec ~seed:0 0) with Wire.sb_seed = seed; sb_mode = Wire.Wait }) with
          | Ok (Client.Finished _) -> ()
          | Ok _ -> failwith "warm-up session did not finish"
          | Error e -> failwith ("warm-up session: " ^ e))

(* ---------------- the closed-loop clients ---------------- *)

type fresh = {
  f_id : string;
  f_result : Peak_store.Codec.session_result;
  f_json : string;
  f_fresh : int;
  f_wall : float;  (** Submit to result. *)
}

type phase = {
  mutable wall : float;  (** Of the timed loop. *)
  mutable next_fresh : int;  (** Next fresh submission index. *)
  mutable next_resume : int;  (** Resubmissions so far. *)
  completed : (int, fresh) Hashtbl.t;  (** By fresh submission index. *)
  mutable frames : int;  (** Request and response frames exchanged. *)
  mutable saturated : int;
  lock : Mutex.t;
}

let new_phase () =
  {
    wall = 0.0;
    next_fresh = 0;
    next_resume = 0;
    completed = Hashtbl.create 64;
    frames = 0;
    saturated = 0;
    lock = Mutex.create ();
  }

let locked ph f =
  Mutex.lock ph.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ph.lock) f

(* [session_s_tail] is taken over this many fresh sessions on every
   run, so its percentile is the same on every run.  The loop runs until
   at least this many have gone out. *)
let tail_n = 60

(* Drive a submit or resume in Stream mode; returns the outcome, the
   wall from submit to result, the wall to the first progress event and
   the session's final (ratings, fresh) counts. *)
let drive ph conn req =
  let t0 = now () in
  let first = ref nan and counts = ref (0, 0) in
  let on_event = function
    | Wire.Ev_counter _ -> if Float.is_nan !first then first := now () -. t0
    | Wire.Ev_span { es_args; _ } ->
        let get k = try int_of_string (List.assoc k es_args) with Not_found | Failure _ -> 0 in
        counts := (get "ratings", get "fresh")
    | Wire.Ev_instant _ -> ()
  in
  let out =
    Peak_obs.with_span ~cat:"bench" "bench:request" (fun _ -> Client.run ~on_event conn req)
  in
  let wall = now () -. t0 in
  (* the request, its Accepted reply and its result *)
  locked ph (fun () -> ph.frames <- ph.frames + 3);
  (out, wall, !first, !counts)

(* One client connection's closed loop: each request goes out as soon
   as the previous reply has arrived.  Of every five requests, the
   first three submit fresh sessions, the fourth resubmits a completed
   id and the fifth asks for Stats.  The loop ends at the deadline, but
   not before [tail_n] fresh submissions have gone out. *)
let client rep ph ~seed ~deadline d =
  match Client.connect d.endpoint with
  | Error e -> locked ph (fun () -> check rep false "client connect: %s" e)
  | Ok conn ->
      Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
      let stats () =
        let ok = match Client.request conn Wire.Stats_req with Ok (Wire.Stats_r _) -> true | _ -> false in
        locked ph (fun () -> check rep ok "stats request")
      in
      let fresh () =
        let k =
          locked ph (fun () ->
              let k = ph.next_fresh in
              ph.next_fresh <- k + 1;
              k)
        in
        let sp = spec ~seed k in
        match drive ph conn (Wire.Submit sp) with
        | Ok (Client.Finished { id; result; _ }), wall, first, (_, fresh) ->
            locked ph (fun () ->
                check rep true "submit";
                rep.sessions <-
                  session_of_summary ~bench:sp.Wire.sb_benchmark ~seed:sp.Wire.sb_seed ~fresh result
                  :: rep.sessions;
                rep.session_s <- (sp.Wire.sb_benchmark, wall) :: rep.session_s;
                if Float.is_finite first then rep.first_progress_s <- first :: rep.first_progress_s;
                Hashtbl.replace ph.completed k
                  {
                    f_id = id;
                    f_result = result;
                    f_json = encode_result result;
                    f_fresh = fresh;
                    f_wall = wall;
                  })
        | Ok (Client.Saturated _), _, _, _ ->
            locked ph (fun () ->
                ph.saturated <- ph.saturated + 1;
                check rep false "submit %d refused: daemon saturated" k)
        | Ok (Client.Accepted_only _), _, _, _ -> locked ph (fun () -> check rep false "submit %d detached" k)
        | Error e, _, _, _ -> locked ph (fun () -> check rep false "submit %d: %s" k e)
      in
      (* resubmit completed ids in turn, in submission order *)
      let resume () =
        let n, done_ =
          locked ph (fun () ->
              ph.next_resume <- ph.next_resume + 1;
              (ph.next_resume - 1, Hashtbl.fold (fun k f acc -> (k, f) :: acc) ph.completed []))
        in
        match List.sort (fun (a, _) (b, _) -> compare a b) done_ with
        | [] -> ()
        | done_ -> (
            let k, original = List.nth done_ (n mod List.length done_) in
            match drive ph conn (Wire.Resume { rs_id = original.f_id; rs_mode = Wire.Stream }) with
            | Ok (Client.Finished { result; _ }), wall, _, (ratings, fresh) ->
                locked ph (fun () ->
                    check rep (encode_result result = original.f_json)
                      "%s: resubmitted result of submit %d differs from the fresh one" original.f_id k;
                    rep.resume_s <- ((spec ~seed k).Wire.sb_benchmark, wall) :: rep.resume_s;
                    rep.replay <- (ratings - fresh, ratings) :: rep.replay)
            | Ok _, _, _, _ -> locked ph (fun () -> check rep false "resume %s not finished" original.f_id)
            | Error e, _, _, _ -> locked ph (fun () -> check rep false "resume %s: %s" original.f_id e))
      in
      let more () = now () < deadline || locked ph (fun () -> ph.next_fresh < tail_n) in
      let rec loop i =
        if more () then begin
          (match i mod 5 with 0 | 1 | 2 -> fresh () | 3 -> resume () | _ -> stats ());
          loop (i + 1)
        end
      in
      loop 0

let load rep ph ~seed ~clients ~seconds d =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let threads = List.init clients (fun _ -> Thread.create (fun () -> client rep ph ~seed ~deadline d) ()) in
  List.iter Thread.join threads;
  ph.wall <- now () -. t0;
  (* the tail's sessions: [tail_n / 2] ART-SWIM pairs of consecutive
     submissions, evenly spaced over the whole loop, so that a slow
     spell of the host weighs on them as it weighs on the run *)
  let pairs = Hashtbl.length ph.completed / 2 and picks = tail_n / 2 in
  rep.tail_s <-
    List.concat_map
      (fun i ->
        let j = i * pairs / picks in
        List.filter_map
          (fun k -> Option.map (fun f -> f.f_wall) (Hashtbl.find_opt ph.completed k))
          [ 2 * j; (2 * j) + 1 ])
      (List.init picks Fun.id)

(* Journal lines and bytes of the prefix sessions. *)
let prefix_journals ~store ph =
  List.fold_left
    (fun (a, b) k ->
      match Hashtbl.find_opt ph.completed k with
      | None -> (a, b)
      | Some f ->
          let j = List.fold_left Filename.concat store [ "sessions"; f.f_id; "journal.jsonl" ] in
          (a + count_lines j, b + file_size j))
    (0, 0)
    (List.init prefix_len Fun.id)

(* After the timed phase: evaluate the prefix sessions on the Ref set
   and check each against an in-process single-domain Driver.tune with
   the same spec. *)
let check_prefix rep ph ~seed ~dir =
  let store = Filename.concat dir "inproc-store" in
  rm_rf store;
  for k = 0 to prefix_len - 1 do
    match Hashtbl.find_opt ph.completed k with
    | None -> check rep false "prefix submit %d did not complete" k
    | Some f ->
        let sp = spec ~seed k in
        let b = benchmark sp.Wire.sb_benchmark in
        let sess =
          session_of_summary ~bench:sp.Wire.sb_benchmark ~seed:sp.Wire.sb_seed ~fresh:f.f_fresh
            f.f_result
        in
        let speedup = Offline.evaluate rep sess in
        rep.prefix <- rep.prefix @ [ sess ];
        rep.speedups <- rep.speedups @ [ speedup ];
        let rating_params = { Peak.Rating.default_params with Peak.Rating.max_invocations = cap } in
        let meta =
          Peak.Driver.session_meta ~strategy:Offline.strategy ~rating_params ~seed:sp.Wire.sb_seed
            b machine Peak_workload.Trace.Train
        in
        let s = Offline.open_session ~store meta in
        let r =
          Fun.protect
            ~finally:(fun () -> Peak_store.Session.close s)
            (fun () ->
              Peak.Driver.tune ~seed:sp.Wire.sb_seed ~strategy:Offline.strategy ~rating_params
                ~store:s b machine Peak_workload.Trace.Train)
        in
        check rep
          (encode_result (Peak.Driver.result_summary r) = f.f_json)
          "%s: daemon result differs from the in-process single-domain tune" f.f_id;
        invariant rep (output_matches sess) "%s: tuned output digest differs from -O3" f.f_id
  done;
  rm_rf store
