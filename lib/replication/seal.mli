(** Authenticated-encryption {e model} for secret-colored delta payloads.

    The replication layer must never let a secret-colored value leave the
    enclave abstraction in plaintext (the CONFLLVM/SecV transport rule:
    confidential data crossing a trust boundary travels as ciphertext).
    This module models that transport seal the same way {!Privagic_sgx}
    models SGX: behaviourally faithful and costed, not cryptographically
    hardened — the keystream and MAC are splitmix64-based PRFs, standing
    in for AES-GCM with a per-enclave key provisioned at attestation
    time.

    Both ends of a replication link derive the same key from the cluster
    secret and the enclave color name, which models the provisioning
    step: a replica runs the same partitioned program, so its enclave of
    color [c] holds the same sealing key as the primary's.

    Properties the tests rely on:
    - round trip: [unseal (seal p) = Ok p];
    - authenticated: flipping any ciphertext or tag bit makes [unseal]
      return [Error _];
    - nonce-separated: the same payload sealed under two sequence
      numbers yields different ciphertexts;
    - no plaintext on the wire: the sealed bytes never contain the
      payload (checked as a trace property over captured wire traffic,
      see test_replication.ml). *)

type key

(** Derive the sealing key of enclave color [color] under [cluster] (the
    shared cluster secret; both sides of a link must agree on it). *)
val derive : cluster:string -> string -> key

(** Bytes added by the seal (the MAC tag). *)
val overhead : int

(** [seal ~key ~nonce p] — ciphertext of [p] followed by the tag. The
    nonce must be unique per key; the replication layer uses the delta
    sequence number. *)
val seal : key:key -> nonce:int -> string -> string

(** Verify and decrypt. [Error _] on a bad tag or a short input. *)
val unseal : key:key -> nonce:int -> string -> (string, string) result

(** Cost of sealing [n] payload bytes, in CPU cycles, on the same scale
    as {!Privagic_sgx.Cost}: a fixed schedule setup plus a per-16-byte
    AES block charge (AES-NI throughput-level, ~2 cycles/byte, plus the
    GHASH-style tag). Used by telemetry accounting, not by control
    flow. *)
val cost_cycles : int -> float
