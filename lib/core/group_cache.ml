(* Cached construction of the expensive group-layer precomputations: the
   BSGS baby table (~sqrt(n·2^b) group elements) and the g/q fixed-base
   tables ([Point.Table]: 512 Niels entries each, off the OCaml heap,
   serialized by the one serializer every [Point.Niels_store] shares).
   Both dominate process start-up once the hot paths themselves are fast,
   so warm starts load them from a Store.Cache directory instead of
   rebuilding.  The comb and Bulletproofs tables are not persisted yet.

   Configuration is process-global (set from the CLI via [configure])
   because the constructors run deep inside Server.create / Setup.create
   call chains — threading an optional cache through every signature
   would churn half the core API for a deployment knob.  Tests use the
   explicit [?cache] arguments instead. *)

module Point = Curve25519.Point
module Dlog = Curve25519.Dlog

let global_cache : Store.Cache.t option ref = ref None

let configure ?cache_dir () =
  match cache_dir with
  | Some dir -> global_cache := Some (Store.Cache.open_ ~dir)
  | None -> ()

let reset () = global_cache := None
let cache () = !global_cache

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

(* Cache keys bind every input that determines the artifact's contents:
   the base point (compressed), the geometry parameters, and a format
   version (bumped when the serialized layout changes). *)

let dlog ?cache ?m_scale ~base ~max_abs () =
  let cache = match cache with Some _ as c -> c | None -> !global_cache in
  let m_scale = Option.value m_scale ~default:1.0 in
  let build () = Dlog.create ~m_scale ~base ~max_abs () in
  match cache with
  | None -> build ()
  | Some c ->
      let key =
        Printf.sprintf "dlog/v2/%s/%d/%.6f" (hex (Point.compress base)) max_abs m_scale
      in
      let cached =
        match Store.Cache.load c ~key with
        | None -> None
        | Some b -> (
            match Dlog.of_bytes ~base b with
            | Some t when Dlog.max_abs t = max_abs -> Some t
            | _ -> None)
      in
      (match cached with
      | Some t -> t
      | None ->
          let t = build () in
          Store.Cache.save c ~key (Dlog.to_bytes t);
          t)

let table ?cache ~label ~base () =
  let cache = match cache with Some _ as c -> c | None -> !global_cache in
  match cache with
  | None -> Point.Table.make base
  | Some c ->
      let key = Printf.sprintf "table/v3/%s/%s" label (hex (Point.compress base)) in
      let cached =
        match Store.Cache.load c ~key with
        | None -> None
        | Some b -> Point.Table.of_bytes ~base b
      in
      (match cached with
      | Some t -> t
      | None ->
          let t = Point.Table.make base in
          Store.Cache.save c ~key (Point.Table.to_bytes t);
          t)
