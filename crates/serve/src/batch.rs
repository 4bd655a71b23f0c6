//! Request batching: coalesce slice reads that touch the same chunk.
//!
//! A batch of `(archive, member, time-range)` slice requests usually
//! overlaps heavily — clients page through the same members, and ranges
//! that cross chunk seams touch neighbouring chunks twice. Planning a
//! batch resolves every request to `(archive, member)` indices, walks the
//! chunk map ([`exaclim_store::MemberEntry::chunks_for_range`]), and
//! deduplicates the union of touched chunks, so each distinct chunk is
//! fetched and decoded **once** per batch no matter how many requests
//! reference it. Responses are then assembled from the shared decoded
//! chunks.
//!
//! The plan is deterministic: fetches appear in first-touch order, and
//! each request records which fetches it consumes, in time order — which
//! is what makes batched responses bit-identical to sequential
//! [`exaclim_store::Archive::read_field_slices`] reads.

use crate::cache::ChunkKey;
use crate::catalog::Catalog;
use crate::error::ServeError;
use exaclim_store::{ArchiveError, MemberKind};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// One field-slice request: time steps `range` of `member` in `archive`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceRequest {
    /// Catalog name of the archive.
    pub archive: String,
    /// Member name within the archive.
    pub member: String,
    /// Half-open time-step range to read.
    pub range: Range<u64>,
}

/// A validated slice request with its chunk fetches resolved.
#[derive(Debug, Clone)]
pub struct SlicePlan {
    /// Catalog index of the archive.
    pub archive: usize,
    /// Member index within the archive.
    pub member: usize,
    /// The requested time range.
    pub range: Range<u64>,
    /// Values per time slice of the member (response geometry).
    pub values_per_slice: u64,
    /// Indices into [`BatchPlan::fetches`], in chunk-time order.
    pub fetch_indices: Vec<usize>,
}

/// The coalesced execution plan of one batch of slice requests.
#[derive(Debug)]
pub struct BatchPlan {
    /// Unique chunks the batch needs, in first-touch order.
    pub fetches: Vec<ChunkKey>,
    /// Per-request plans, aligned with the input order. Requests that fail
    /// validation (unknown names, out-of-range slices) carry their error.
    pub per_request: Vec<Result<SlicePlan, ServeError>>,
    /// Total chunk touches before deduplication; `touches −
    /// fetches.len()` chunk decodes were saved by coalescing.
    pub touches: usize,
}

impl BatchPlan {
    /// Plan a batch against `catalog`. Never fails as a whole — invalid
    /// requests surface individually in [`BatchPlan::per_request`].
    pub fn build(catalog: &Catalog, requests: &[SliceRequest]) -> Self {
        let mut fetches: Vec<ChunkKey> = Vec::new();
        let mut index_of: HashMap<ChunkKey, usize> = HashMap::new();
        let mut touches = 0usize;
        let per_request = requests
            .iter()
            .map(|req| {
                let archive_idx = catalog.archive_index(&req.archive)?;
                let archive = &catalog.archives()[archive_idx];
                let member_idx = archive.member_index(&req.member)?;
                let m = &archive.members()[member_idx];
                if m.kind != MemberKind::Field {
                    return Err(ServeError::Archive(ArchiveError::BadRequest(format!(
                        "member `{}` is not a field",
                        req.member
                    ))));
                }
                if req.range.start > req.range.end || req.range.end > m.t_max {
                    return Err(ServeError::Archive(ArchiveError::BadRequest(format!(
                        "slice range {}..{} out of bounds for {} time steps",
                        req.range.start, req.range.end, m.t_max
                    ))));
                }
                let fetch_indices: Vec<usize> = m
                    .chunks_for_range(req.range.start, req.range.end)
                    .into_iter()
                    .map(|chunk_idx| {
                        touches += 1;
                        let key = ChunkKey {
                            archive: archive_idx as u32,
                            member: member_idx as u32,
                            chunk: chunk_idx as u32,
                        };
                        *index_of.entry(key).or_insert_with(|| {
                            fetches.push(key);
                            fetches.len() - 1
                        })
                    })
                    .collect();
                Ok(SlicePlan {
                    archive: archive_idx,
                    member: member_idx,
                    range: req.range.clone(),
                    values_per_slice: m.values_per_slice,
                    fetch_indices,
                })
            })
            .collect();
        Self {
            fetches,
            per_request,
            touches,
        }
    }

    /// The `(fetch index, value range)` parts whose in-order
    /// concatenation is the request's response — the geometry of
    /// [`BatchPlan::assemble`] without touching any values, so callers
    /// can reference the decoded chunks (zero-copy streaming) instead of
    /// copying out of them.
    pub fn assemble_parts(
        &self,
        catalog: &Catalog,
        plan: &SlicePlan,
    ) -> Vec<(usize, Range<usize>)> {
        let entries = &catalog.archives()[plan.archive].members()[plan.member].chunks;
        let vps = plan.values_per_slice as usize;
        plan.fetch_indices
            .iter()
            .map(|&fi| {
                let key = self.fetches[fi];
                let c = entries[key.chunk as usize];
                let lo = plan.range.start.max(c.t0);
                let hi = plan.range.end.min(c.t0 + u64::from(c.t_len));
                let a = (lo - c.t0) as usize * vps;
                let b = (hi - c.t0) as usize * vps;
                (fi, a..b)
            })
            .collect()
    }

    /// Assemble one request's response values from the batch's decoded
    /// chunks (`chunks` aligned with [`BatchPlan::fetches`]). Concatenates
    /// each overlapping chunk's in-range part in time order — exactly what
    /// [`exaclim_store::Archive::read_field_slices`] does, hence
    /// bit-identical output.
    pub fn assemble(&self, catalog: &Catalog, plan: &SlicePlan, chunks: &[Arc<[f64]>]) -> Vec<f64> {
        let vps = plan.values_per_slice as usize;
        let mut out = Vec::with_capacity((plan.range.end - plan.range.start) as usize * vps);
        for (fi, r) in self.assemble_parts(catalog, plan) {
            out.extend_from_slice(&chunks[fi][r]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
    use std::io::Cursor;

    fn catalog_with(vps: usize, t_max: usize, chunk_t: usize) -> (Catalog, Vec<f64>) {
        let data: Vec<f64> = (0..vps * t_max).map(|i| i as f64 * 0.5).collect();
        let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
        w.add_field("f", Codec::Raw64, FieldMeta::default(), vps, chunk_t, &data)
            .unwrap();
        let (cursor, _) = w.finish().unwrap();
        let mut c = Catalog::new();
        c.open_archive_bytes("a", cursor.into_inner()).unwrap();
        (c, data)
    }

    fn req(range: Range<u64>) -> SliceRequest {
        SliceRequest {
            archive: "a".to_string(),
            member: "f".to_string(),
            range,
        }
    }

    #[test]
    fn overlapping_requests_coalesce() {
        let (catalog, _) = catalog_with(3, 20, 4); // 5 chunks of 4 steps
                                                   // Three requests all inside chunks 0–2; chunk 1 touched 3 times.
        let plan = BatchPlan::build(&catalog, &[req(0..8), req(2..6), req(4..12)]);
        assert_eq!(plan.touches, 2 + 2 + 2);
        assert_eq!(plan.fetches.len(), 3, "chunks 0, 1, 2 fetched once each");
        for p in &plan.per_request {
            assert!(p.is_ok());
        }
    }

    #[test]
    fn assembly_matches_sequential_read() {
        let (catalog, data) = catalog_with(5, 17, 4);
        let ranges = [0..17u64, 3..9, 4..4, 15..17, 0..1];
        let reqs: Vec<SliceRequest> = ranges.iter().map(|r| req(r.clone())).collect();
        let plan = BatchPlan::build(&catalog, &reqs);
        let archive = &catalog.archives()[0];
        let chunks: Vec<std::sync::Arc<[f64]>> = plan
            .fetches
            .iter()
            .map(|k| {
                archive
                    .fetch_field_chunk(0, k.chunk as usize)
                    .unwrap()
                    .into()
            })
            .collect();
        for (r, p) in ranges.iter().zip(&plan.per_request) {
            let got = plan.assemble(&catalog, p.as_ref().unwrap(), &chunks);
            let want = &data[r.start as usize * 5..r.end as usize * 5];
            assert_eq!(got, want, "range {r:?}");
        }
    }

    #[test]
    fn invalid_requests_fail_individually() {
        let (catalog, _) = catalog_with(3, 10, 4);
        let bad_member = SliceRequest {
            member: "nope".to_string(),
            ..req(0..1)
        };
        let bad_archive = SliceRequest {
            archive: "nope".to_string(),
            ..req(0..1)
        };
        let plan = BatchPlan::build(&catalog, &[req(0..10), bad_member, req(5..99), bad_archive]);
        assert!(plan.per_request[0].is_ok());
        assert!(matches!(
            plan.per_request[1],
            Err(ServeError::Archive(ArchiveError::MemberNotFound(_)))
        ));
        assert!(matches!(
            plan.per_request[2],
            Err(ServeError::Archive(ArchiveError::BadRequest(_)))
        ));
        assert!(matches!(
            plan.per_request[3],
            Err(ServeError::UnknownArchive(_))
        ));
        // The valid request still plans: 3 chunks.
        assert_eq!(plan.fetches.len(), 3);
    }
}
