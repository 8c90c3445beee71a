(** The socket-backed implementation of {!Netsim.Transport_intf.S}.

    Every {!send} carries its frame through a {e real} kernel socketpair:
    the frame is enveloped (sender id + bytes), length-prefixed
    ({!Frame.encode}), written in seeded random-sized chunks (down to one
    byte — a built-in slow-loris), read back non-blocking, reassembled
    through the capped {!Frame.Reassembler}, and only then submitted to
    an inner {!Netsim} carrying the same seed, plan, script and deadline.

    Because the socket leg is byte-transparent and the fault engine is
    the same seeded Netsim, every outcome — fault schedules, dropouts,
    C*, aggregates — is bit-identical to running the plain Netsim
    backend, while the kernel-socket framing path (partial reads, short
    writes, frame boundaries) gets exercised for real. The
    degradation/dropout suites run unchanged over either backend. *)

include Netsim.Transport_intf.S
