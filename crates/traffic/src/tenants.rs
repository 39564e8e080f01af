//! Multi-tenant workload generation (DESIGN.md §16).
//!
//! A multi-tenant DPI instance serves several tenants' policy chains at
//! once; isolation and fairness tests need offered load that is (a)
//! attributable — every packet is chain-tagged, and each chain belongs
//! to exactly one tenant — and (b) deterministic, so a tenant's packets
//! are byte-identical whether the tenant runs alone or interleaved with
//! others. [`tenant_mix`] produces exactly that: per-stream packets are
//! derived only from the stream's own spec and the shared seed, never
//! from the other streams, so removing a stream from the mix leaves the
//! remaining streams' packets untouched.

use crate::flows::{flow_pool, FlowPool};
use dpi_packet::{MacAddr, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tenant's offered load in a [`tenant_mix`].
#[derive(Debug, Clone)]
pub struct TenantStream {
    /// The policy chain the packets are tagged for. Chains are
    /// tenant-homogeneous, so this also decides the owning tenant.
    pub chain_id: u16,
    /// Total packets this stream offers.
    pub packets: usize,
    /// Distinct flows the packets round-robin across.
    pub flows: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// A pattern planted in every `plant_every`-th packet (1-based);
    /// `None` offers purely benign traffic.
    pub plant: Option<(Vec<u8>, usize)>,
}

impl TenantStream {
    /// A benign stream: `packets` packets of `payload_len` bytes over
    /// `flows` flows on `chain_id`.
    pub fn benign(chain_id: u16, packets: usize, flows: usize, payload_len: usize) -> TenantStream {
        TenantStream {
            chain_id,
            packets,
            flows,
            payload_len,
            plant: None,
        }
    }

    /// Plants `pattern` in every `every`-th packet of the stream.
    pub fn with_plant(mut self, pattern: Vec<u8>, every: usize) -> TenantStream {
        self.plant = Some((pattern, every.max(1)));
        self
    }
}

/// The `i`-th packet of one stream, derived only from the stream's spec
/// and the shared seed — independent of any other stream in the mix.
fn stream_packet(
    spec: &TenantStream,
    pool: &FlowPool,
    seqs: &mut [u32],
    i: usize,
    seed: u64,
) -> Packet {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (u64::from(spec.chain_id) << 32) ^ (i as u64).wrapping_mul(0x9e37_79b9),
    );
    let mut payload: Vec<u8> = (0..spec.payload_len)
        .map(|_| {
            // Printable filler, like the HTTP-ish traces elsewhere.
            b' ' + rng.gen_range(0..95u8)
        })
        .collect();
    if let Some((pattern, every)) = &spec.plant {
        if (i + 1).is_multiple_of(*every) && payload.len() >= pattern.len() {
            let at = rng.gen_range(0..=payload.len() - pattern.len());
            payload[at..at + pattern.len()].copy_from_slice(pattern);
        }
    }
    let slot = i % pool.len();
    let flow = pool.get(slot);
    let seq = seqs[slot];
    seqs[slot] = seq.wrapping_add(payload.len() as u32);
    let mut pkt = Packet::tcp(MacAddr::local(1), MacAddr::local(2), flow, seq, payload);
    pkt.push_chain_tag(spec.chain_id)
        .expect("fresh packet accepts a chain tag");
    pkt
}

/// Generates every stream's packets and interleaves them proportionally:
/// at any prefix of the mix, each stream has contributed packets in
/// proportion to its offered load (largest-remainder order, determined
/// only by the offered counts). Per-stream packet *contents* depend only
/// on that stream's spec and `seed`, so any stream sliced back out of
/// the mix (by chain tag) is byte-identical to generating it alone.
pub fn tenant_mix(streams: &[TenantStream], seed: u64) -> Vec<Packet> {
    let total: usize = streams.iter().map(|s| s.packets).sum();
    let pools: Vec<FlowPool> = streams
        .iter()
        .map(|s| flow_pool(s.flows.max(1), seed ^ u64::from(s.chain_id)))
        .collect();
    let mut seqs: Vec<Vec<u32>> = streams.iter().map(|s| vec![0; s.flows.max(1)]).collect();
    let mut emitted = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(total);
    for step in 1..=total {
        // Pick the stream furthest behind its proportional share; ties
        // break toward the earlier stream, deterministically.
        let next = (0..streams.len())
            .filter(|&s| emitted[s] < streams[s].packets)
            .max_by_key(|&s| {
                // deficit = packets*step - emitted*total, scaled to
                // avoid floating point.
                (streams[s].packets * step) as i64 - (emitted[s] * total) as i64
            })
            .expect("some stream still has packets while step <= total");
        let pkt = stream_packet(
            &streams[next],
            &pools[next],
            &mut seqs[next],
            emitted[next],
            seed,
        );
        out.push(pkt);
        emitted[next] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        let streams = [
            TenantStream::benign(1, 20, 3, 64).with_plant(b"evil".to_vec(), 5),
            TenantStream::benign(2, 10, 2, 32),
        ];
        let a = tenant_mix(&streams, 42);
        let b = tenant_mix(&streams, 42);
        assert_eq!(a.len(), 30);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_sliced_from_mix_equals_stream_generated_alone() {
        let a = TenantStream::benign(1, 25, 4, 80).with_plant(b"needle".to_vec(), 3);
        let b = TenantStream::benign(2, 50, 4, 80);
        let mixed = tenant_mix(&[a.clone(), b], 7);
        let alone = tenant_mix(&[a], 7);
        let sliced: Vec<Packet> = mixed
            .into_iter()
            .filter(|p| p.chain_tag() == Some(1))
            .collect();
        assert_eq!(sliced, alone);
    }

    #[test]
    fn interleave_tracks_offered_proportions() {
        let streams = [
            TenantStream::benign(1, 90, 2, 16),
            TenantStream::benign(2, 10, 2, 16),
        ];
        let mix = tenant_mix(&streams, 1);
        // In any 10-packet window, tenant 2 appears at most twice: the
        // largest-remainder interleave never lets a stream burst far
        // past its share.
        for w in mix.chunks(10) {
            let t2 = w.iter().filter(|p| p.chain_tag() == Some(2)).count();
            assert!(t2 <= 2, "tenant 2 got {t2} of 10 slots");
        }
        for (chain, n) in [(1, 90), (2, 10)] {
            let offered = mix.iter().filter(|p| p.chain_tag() == Some(chain)).count();
            assert_eq!(offered, n);
        }
    }
}
