//! Content hashing for snapshots and replay verification.
//!
//! FNV-1a is used throughout: it is tiny, dependency-free and fully
//! deterministic across platforms, which is all a replay checker needs —
//! these hashes detect divergence, they are not cryptographic.

use mcds_psi::Device;
use mcds_soc::soc::MemoryId;

/// 64-bit FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    extend_fnv1a64(FNV_OFFSET, bytes)
}

/// Folds more bytes into a running FNV-1a hash.
pub fn extend_fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes a device's complete architectural state: the serialized runtime
/// state (CPU registers and pipeline, bus, MCDS, sink, links, service core)
/// plus every fitted memory image.
///
/// Two devices with equal hashes are observably indistinguishable; replay
/// verification compares this hash between the original and re-executed run.
pub fn device_state_hash(dev: &Device) -> u64 {
    let state =
        serde_json::to_string(&dev.save_state()).expect("device state serializes infallibly");
    let mut hash = fnv1a64(state.as_bytes());
    for id in [MemoryId::Flash, MemoryId::Sram, MemoryId::Emem] {
        if let Some(image) = dev.soc().memory_image(id) {
            hash = extend_fnv1a64(hash, &image);
        }
    }
    hash
}

/// The raw encoded trace bytes currently stored in the device's trace sink,
/// or `None` when the variant has no emulation RAM. Replay verification
/// decodes and compares this stream between runs.
pub fn trace_bytes(dev: &Device) -> Option<Vec<u8>> {
    dev.soc()
        .mapper()
        .emem()
        .map(|emem| dev.sink().read_back(emem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn extend_is_equivalent_to_concatenation() {
        let h1 = fnv1a64(b"hello world");
        let h2 = extend_fnv1a64(fnv1a64(b"hello "), b"world");
        assert_eq!(h1, h2);
    }
}
