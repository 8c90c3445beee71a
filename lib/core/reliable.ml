type counters = {
  logical : int;
  attempts : int;
  retransmits : int;
  recovered : int;
  lost : int;
  dup_suppressed : int;
  rejected : int;
}

let c_retransmits = Telemetry.Counter.make "rel.retransmits"
let c_recovered = Telemetry.Counter.make "rel.recovered"
let c_lost = Telemetry.Counter.make "rel.lost"
let c_dup = Telemetry.Counter.make "rel.dup.suppressed"
let c_rejected = Telemetry.Counter.make "rel.rejected"

module TI = Netsim.Transport_intf

type t = {
  ep : TI.endpoint;
  max_attempts : int;
  base_deadline : int;
  (* receive-side dedup by (round, stage index, sender, seq): an ack is
     implied by membership, so a duplicate or a replayed copy of an
     already-accepted frame is suppressed idempotently *)
  seen : (int * int * int * int, unit) Hashtbl.t;
  mutable c_logical : int;
  mutable c_attempts : int;
  mutable c_retransmits : int;
  mutable c_recovered : int;
  mutable c_lost : int;
  mutable c_dup : int;
  mutable c_rejected : int;
}

let create_ep ?(max_attempts = 4) ?base_deadline (ep : TI.endpoint) =
  let base_deadline =
    match base_deadline with Some d -> max 1 d | None -> max 1 (ep.TI.ep_deadline ())
  in
  {
    ep;
    max_attempts = max 1 max_attempts;
    base_deadline;
    seen = Hashtbl.create 97;
    c_logical = 0;
    c_attempts = 0;
    c_retransmits = 0;
    c_recovered = 0;
    c_lost = 0;
    c_dup = 0;
    c_rejected = 0;
  }

let counters t =
  {
    logical = t.c_logical;
    attempts = t.c_attempts;
    retransmits = t.c_retransmits;
    recovered = t.c_recovered;
    lost = t.c_lost;
    dup_suppressed = t.c_dup;
    rejected = t.c_rejected;
  }

let exchange t ~round ~stage ?(already = []) payloads =
  let n = Array.length payloads in
  let stage_ix = Netsim.stage_index stage in
  let acked = Array.make n false in
  List.iter (fun s -> if s >= 1 && s <= n then acked.(s - 1) <- true) already;
  let pending = ref 0 in
  Array.iteri
    (fun i p ->
      if p <> None && not acked.(i) then begin
        incr pending;
        t.c_logical <- t.c_logical + 1
      end)
    payloads;
  let accepted = ref [] in
  let attempt = ref 0 in
  while !pending > 0 && !attempt < t.max_attempts do
    t.ep.TI.ep_begin_stage ~round ~stage;
    Array.iteri
      (fun i p ->
        match p with
        | Some payload when not acked.(i) ->
            t.c_attempts <- t.c_attempts + 1;
            if !attempt > 0 then begin
              t.c_retransmits <- t.c_retransmits + 1;
              Telemetry.Counter.incr c_retransmits
            end;
            t.ep.TI.ep_send ~attempt:!attempt ~sender:(i + 1)
              (Serial.encode_framed ~round ~stage:stage_ix ~sender:(i + 1) ~seq:0 payload)
        | _ -> ())
      payloads;
    (* exponential backoff: each retry waits out a doubled window, so a
       delayed frame that missed the last deadline can land in the next *)
    let window = t.base_deadline * (1 lsl min !attempt 16) in
    List.iter
      (fun (link_sender, raw) ->
        match Serial.decode_framed raw with
        | Error _ ->
            (* corrupt framing reads as line noise: drop, let the
               retransmit loop recover it — malice is judged on the inner
               codec only after a CRC-clean arrival *)
            t.c_rejected <- t.c_rejected + 1;
            Telemetry.Counter.incr c_rejected
        | Ok (hdr, payload) ->
            if
              hdr.Serial.fh_round <> round || hdr.Serial.fh_stage <> stage_ix
              || hdr.Serial.fh_sender <> link_sender
            then begin
              (* cross-round replay or a spoofed link id: idempotent reject *)
              t.c_rejected <- t.c_rejected + 1;
              Telemetry.Counter.incr c_rejected
            end
            else begin
              let key = (round, stage_ix, hdr.Serial.fh_sender, hdr.Serial.fh_seq) in
              if Hashtbl.mem t.seen key then begin
                t.c_dup <- t.c_dup + 1;
                Telemetry.Counter.incr c_dup
              end
              else begin
                Hashtbl.replace t.seen key ();
                if not acked.(hdr.Serial.fh_sender - 1) then begin
                  acked.(hdr.Serial.fh_sender - 1) <- true;
                  decr pending;
                  if !attempt > 0 then begin
                    t.c_recovered <- t.c_recovered + 1;
                    Telemetry.Counter.incr c_recovered;
                    t.ep.TI.ep_note_recovered ()
                  end;
                  accepted := (hdr.Serial.fh_sender, hdr.Serial.fh_seq, payload) :: !accepted
                end
              end
            end)
      (t.ep.TI.ep_deliver ~deadline:(Some window));
    incr attempt
  done;
  if !pending > 0 then begin
    t.c_lost <- t.c_lost + !pending;
    Telemetry.Counter.add c_lost !pending
  end;
  List.rev !accepted
