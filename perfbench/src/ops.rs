//! The op stream: every client operation the benchmark issues comes from
//! here, derived from `--seed` alone.

use coterie_core::{ClientRequest, PartialWrite};

/// SplitMix64: a seedable stream where every seed (zero included) gives a
/// distinct, well-mixed sequence.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Generates the mix: `read_permille` reads per thousand, the rest
/// single-page writes of a 32-byte payload to a random page. Ids count up
/// from 1, so they double as issue order.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: SplitMix,
    read_permille: u64,
    n_pages: u64,
    next_id: u64,
}

impl OpGen {
    /// A generator for `seed` over an object of `n_pages` pages.
    pub fn new(seed: u64, read_permille: u64, n_pages: usize) -> Self {
        OpGen {
            rng: SplitMix::new(seed),
            read_permille,
            n_pages: n_pages as u64,
            next_id: 1,
        }
    }

    /// The next operation's kind.
    pub fn next_kind(&mut self) -> Kind {
        if self.rng.below(1000) < self.read_permille {
            Kind::Read
        } else {
            Kind::Write(self.rng.below(self.n_pages) as u16)
        }
    }

    /// A request of `kind` under the next id and, for a write, its payload
    /// (kept for the 1SR audit). A write's payload starts with its id, so
    /// a reissued write never repeats an earlier value.
    pub fn request(&mut self, kind: Kind) -> (ClientRequest, Option<PartialWrite>) {
        let id = self.next_id;
        self.next_id += 1;
        let Kind::Write(page) = kind else {
            return (ClientRequest::Read { id }, None);
        };
        let mut payload = [0u8; 32];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        payload[8..16].copy_from_slice(&self.rng.next_u64().to_le_bytes());
        let write = PartialWrite::new([(page, bytes::Bytes::copy_from_slice(&payload))]);
        (
            ClientRequest::Write {
                id,
                write: write.clone(),
            },
            Some(write),
        )
    }
}

/// What a client operation does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Read the whole object.
    Read,
    /// Write 32 bytes to one page.
    Write(u16),
}

/// The id of a request.
pub fn request_id(request: &ClientRequest) -> u64 {
    match request {
        ClientRequest::Read { id } | ClientRequest::Write { id, .. } => *id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<String> {
        let mut g = OpGen::new(seed, 500, 16);
        (0..64)
            .map(|_| {
                let kind = g.next_kind();
                format!("{:?}", g.request(kind).0)
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }
}
