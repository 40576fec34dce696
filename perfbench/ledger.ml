(* Span ledger for the traced runs.

   Every call into a layer is wrapped in [span name f].  Spans nest:
   a span's self time is its duration minus the time covered by the
   spans opened directly inside it, so the self times of every span
   plus the root's add up to the root's duration exactly.  Each span
   is also recorded as a Chrome trace event (track "perfbench"), with
   its parent's id, so the ledger can be inspected in Perfetto. *)

type frame = {
  name : string;
  id : int;
  parent : int;
  start : float;
  mutable child_s : float;
}

let trace = ref Rc_obs.Trace.null
let stack : frame list ref = ref []
let next_id = ref 0
let self_s : (string, float) Hashtbl.t = Hashtbl.create 32
let calls : (string, int) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let t_origin = Unix.gettimeofday ()

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(** Add [v] to the named counter. *)
let count k v = bump counts k v

let get_count k = Option.value ~default:0. (Hashtbl.find_opt counts k)
let get_self k = Option.value ~default:0. (Hashtbl.find_opt self_s k)
let get_calls k = Option.value ~default:0 (Hashtbl.find_opt calls k)

(** Forget everything recorded so far (set-up work done through the
    same code paths is not part of the measured walk).  Spans are kept
    as trace events only when [events] is set. *)
let reset ~events =
  if !stack <> [] then invalid_arg "Ledger.reset: spans are open";
  Hashtbl.reset self_s;
  Hashtbl.reset calls;
  Hashtbl.reset counts;
  trace := if events then Rc_obs.Trace.create () else Rc_obs.Trace.null

let enter name =
  incr next_id;
  let parent = match !stack with f :: _ -> f.id | [] -> 0 in
  let f =
    { name; id = !next_id; parent; start = Unix.gettimeofday (); child_s = 0. }
  in
  stack := f :: !stack;
  f

let leave f =
  let stop = Unix.gettimeofday () in
  let dur = stop -. f.start in
  (match !stack with
  | g :: rest when g == f -> stack := rest
  | _ -> failwith ("Ledger: span " ^ f.name ^ " closed out of order"));
  (match !stack with p :: _ -> p.child_s <- p.child_s +. dur | [] -> ());
  bump self_s f.name (dur -. f.child_s);
  Hashtbl.replace calls f.name (1 + get_calls f.name);
  Rc_obs.Trace.span !trace ~track:"perfbench" ~name:f.name
    ~ts_us:((f.start -. t_origin) *. 1e6)
    ~dur_us:(dur *. 1e6)
    ~args:[ ("id", Rc_obs.Json.Int f.id); ("parent", Rc_obs.Json.Int f.parent) ]
    ();
  dur

(** Run [f] inside a span named [name]. *)
let span name f =
  let fr = enter name in
  match f () with
  | v ->
      ignore (leave fr);
      v
  | exception e ->
      ignore (leave fr);
      raise e

(** Like {!span}, also returning the span's duration in seconds. *)
let timed name f =
  let fr = enter name in
  match f () with
  | v -> (v, leave fr)
  | exception e ->
      ignore (leave fr);
      raise e

(** Sum of every span's self time. *)
let total_self () = Hashtbl.fold (fun _ v acc -> acc +. v) self_s 0.

let write_chrome path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Rc_obs.Trace.chrome_string !trace))
