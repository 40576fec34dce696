(* Thread-safe metrics registry with log-linear histograms and a
   Prometheus text-exposition renderer: see metrics.mli. *)

(* --- log-linear histogram ------------------------------------------------- *)

module Hist = struct
  let subbuckets = 32
  let rel_error = 1.0 /. float_of_int (2 * subbuckets)

  (* Octaves [2^(e-1), 2^e) for frexp exponents e in [e_min, e_max]:
     2^-31 (~5e-10) up to 2^34 (~1.7e10) — nanoseconds to centuries
     when the unit is seconds.  Values outside land in the under/
     overflow buckets and are answered from the exact min/max. *)
  let e_min = -30
  let e_max = 34
  let octaves = e_max - e_min + 1
  let linear = octaves * subbuckets
  let nbuckets = linear + 2 (* + underflow (index 0) + overflow (last) *)
  let tiny = Float.ldexp 1.0 (e_min - 1)
  let huge = Float.ldexp 1.0 e_max

  type t = {
    mu : Mutex.t;
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    {
      mu = Mutex.create ();
      counts = Array.make nbuckets 0;
      n = 0;
      total = 0.0;
      mn = infinity;
      mx = neg_infinity;
    }

  let bucket_of v =
    if not (v > tiny) then 0 (* zero, negative, tiny, NaN *)
    else if v >= huge then nbuckets - 1
    else begin
      let m, e = Float.frexp v in
      (* m in [0.5, 1): linear position within the octave. *)
      let sub =
        int_of_float ((m -. 0.5) *. float_of_int (2 * subbuckets))
      in
      let sub = if sub >= subbuckets then subbuckets - 1 else sub in
      (((e - e_min) * subbuckets) + sub) + 1
    end

  (* Inclusive upper bound of a linear bucket index (1-based). *)
  let upper i =
    let o = (i - 1) / subbuckets and s = (i - 1) mod subbuckets in
    Float.ldexp
      (0.5 +. (float_of_int (s + 1) /. float_of_int (2 * subbuckets)))
      (o + e_min)

  let lower i =
    let o = (i - 1) / subbuckets and s = (i - 1) mod subbuckets in
    Float.ldexp
      (0.5 +. (float_of_int s /. float_of_int (2 * subbuckets)))
      (o + e_min)

  let observe t v =
    Mutex.protect t.mu (fun () ->
        t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
        t.n <- t.n + 1;
        t.total <- t.total +. v;
        if v < t.mn then t.mn <- v;
        if v > t.mx then t.mx <- v)

  let count t = Mutex.protect t.mu (fun () -> t.n)
  let sum t = Mutex.protect t.mu (fun () -> t.total)
  let min_value t = Mutex.protect t.mu (fun () -> if t.n = 0 then 0.0 else t.mn)
  let max_value t = Mutex.protect t.mu (fun () -> if t.n = 0 then 0.0 else t.mx)

  let quantile t p =
    Mutex.protect t.mu (fun () ->
        if t.n = 0 then 0.0
        else if p <= 0.0 then t.mn
        else if p >= 1.0 then t.mx
        else begin
          (* Nearest rank, matching a sorted-array oracle's
             [sorted.(max 1 (ceil (p * n)) - 1)]. *)
          let rank =
            max 1 (min t.n (int_of_float (Float.ceil (p *. float_of_int t.n))))
          in
          let rec walk i seen =
            let seen = seen + t.counts.(i) in
            if seen >= rank then i else walk (i + 1) seen
          in
          let i = walk 0 0 in
          let v =
            if i = 0 then t.mn
            else if i = nbuckets - 1 then t.mx
            else 0.5 *. (lower i +. upper i)
          in
          (* The exact extremes clamp the bucket midpoint, so p = 0
             and p = 1 are exact and no answer leaves the observed
             range. *)
          Float.min t.mx (Float.max t.mn v)
        end)

  let buckets t =
    Mutex.protect t.mu (fun () ->
        let acc = ref [] and seen = ref 0 in
        for i = 0 to nbuckets - 2 do
          if t.counts.(i) > 0 then begin
            seen := !seen + t.counts.(i);
            let bound = if i = 0 then tiny else upper i in
            acc := (bound, !seen) :: !acc
          end
        done;
        List.rev !acc)
end

(* --- registry ------------------------------------------------------------- *)

type labels = (string * string) list

type kind = Counter | Gauge | Histogram

type series = { s_labels : labels; mutable s_value : float; s_hist : Hist.t }

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_mu : Mutex.t;
  mutable f_series : series list; (* insertion order; sorted at render *)
}

type t = { mu : Mutex.t; mutable families : family list (* reversed *) }

let create () = { mu = Mutex.create (); families = [] }

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let valid_name s =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  String.length s > 0
  && ok_first s.[0]
  && String.for_all ok (String.sub s 1 (String.length s - 1))

let valid_label_name s = valid_name s && not (String.contains s ':')

let normalise_labels labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg ("Metrics: bad label name " ^ k))
    labels;
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let family t ~kind ~help name =
  Mutex.protect t.mu (fun () ->
      match List.find_opt (fun f -> f.f_name = name) t.families with
      | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %s is a %s, not a %s" name
                 (kind_name f.f_kind) (kind_name kind));
          f
      | None ->
          if not (valid_name name) then
            invalid_arg ("Metrics: bad metric name " ^ name);
          let f =
            {
              f_name = name;
              f_help = (match help with Some h -> h | None -> name);
              f_kind = kind;
              f_mu = Mutex.create ();
              f_series = [];
            }
          in
          t.families <- f :: t.families;
          f)

let series f labels =
  let labels = normalise_labels labels in
  Mutex.protect f.f_mu (fun () ->
      match List.find_opt (fun s -> s.s_labels = labels) f.f_series with
      | Some s -> s
      | None ->
          let s = { s_labels = labels; s_value = 0.0; s_hist = Hist.create () } in
          f.f_series <- f.f_series @ [ s ];
          s)

let inc t ?(labels = []) ?help name by =
  if by < 0.0 then invalid_arg "Metrics.inc: negative increment";
  let s = series (family t ~kind:Counter ~help name) labels in
  Mutex.protect t.mu (fun () -> s.s_value <- s.s_value +. by)

let set_counter t ?(labels = []) ?help name v =
  let s = series (family t ~kind:Counter ~help name) labels in
  Mutex.protect t.mu (fun () -> s.s_value <- v)

let set t ?(labels = []) ?help name v =
  let s = series (family t ~kind:Gauge ~help name) labels in
  Mutex.protect t.mu (fun () -> s.s_value <- v)

let add t ?(labels = []) ?help name by =
  let s = series (family t ~kind:Gauge ~help name) labels in
  Mutex.protect t.mu (fun () -> s.s_value <- s.s_value +. by)

let histogram t ?(labels = []) ?help name =
  (series (family t ~kind:Histogram ~help name) labels).s_hist

let observe t ?labels ?help name v =
  Hist.observe (histogram t ?labels ?help name) v

let value t ?(labels = []) name =
  let labels = normalise_labels labels in
  Mutex.protect t.mu (fun () ->
      match List.find_opt (fun f -> f.f_name = name) t.families with
      | None -> None
      | Some f -> (
          match
            List.find_opt (fun s -> s.s_labels = labels) f.f_series
          with
          | Some s when f.f_kind <> Histogram -> Some s.s_value
          | _ -> None))

(* --- Prometheus text exposition ------------------------------------------ *)

(* Label values escape backslash, double quote and newline; HELP text
   escapes backslash and newline (exposition format 0.0.4). *)
let escape ~quote s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '"' when quote -> Buffer.add_string b "\\\""
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let label_str labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape ~quote:true v))
             labels)
      ^ "}"

let render t =
  let families =
    Mutex.protect t.mu (fun () -> List.rev t.families)
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      let serieses =
        Mutex.protect f.f_mu (fun () ->
            List.sort
              (fun a b -> compare (label_str a.s_labels) (label_str b.s_labels))
              f.f_series)
      in
      Buffer.add_string b
        (Printf.sprintf "# HELP %s %s\n" f.f_name
           (escape ~quote:false f.f_help));
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_name f.f_kind));
      List.iter
        (fun s ->
          match f.f_kind with
          | Counter | Gauge ->
              let v = Mutex.protect t.mu (fun () -> s.s_value) in
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" f.f_name (label_str s.s_labels)
                   (number v))
          | Histogram ->
              let h = s.s_hist in
              let bks = Hist.buckets h in
              let n = Hist.count h and total = Hist.sum h in
              let with_le le =
                label_str (s.s_labels @ [ ("le", le) ])
              in
              List.iter
                (fun (bound, cum) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                       (with_le (number bound)) cum))
                bks;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" f.f_name
                   (with_le "+Inf") n);
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" f.f_name
                   (label_str s.s_labels) (number total));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" f.f_name
                   (label_str s.s_labels) n))
        serieses)
    families;
  Buffer.contents b
