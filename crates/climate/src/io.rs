//! [`Dataset`]s as ECA1 archives (`exaclim-store`): chunked,
//! codec-compressed, per-chunk CRC32-checksummed field members.
//! [`dataset_to_eca1`]/[`dataset_from_eca1`] bridge a [`Dataset`] to a
//! single-member archive.

use crate::generator::Dataset;
use bytes::Bytes;
use exaclim_store::{Archive, ArchiveError, ArchiveWriter, Codec, FieldMeta, MemberKind};

/// Member name used for the field when a dataset is stored as ECA1.
pub const ECA1_FIELD_MEMBER: &str = "field";
/// Default time steps per ECA1 chunk.
pub const ECA1_DEFAULT_CHUNK_T: usize = 32;

/// Grid/time metadata of a dataset, as stored in an ECA1 member.
pub fn dataset_meta(d: &Dataset) -> FieldMeta {
    FieldMeta {
        ntheta: d.ntheta,
        nphi: d.nphi,
        start_year: d.start_year,
        tau: d.tau,
    }
}

/// Encode a dataset as a single-member ECA1 archive with the given codec.
pub fn dataset_to_eca1(d: &Dataset, codec: Codec) -> Result<Bytes, ArchiveError> {
    let mut w = ArchiveWriter::new(std::io::Cursor::new(Vec::new()))?;
    w.add_field(
        ECA1_FIELD_MEMBER,
        codec,
        dataset_meta(d),
        d.npoints,
        ECA1_DEFAULT_CHUNK_T.min(d.t_max.max(1)),
        &d.data,
    )?;
    let (cursor, _) = w.finish()?;
    Ok(Bytes::from(cursor.into_inner()))
}

/// Decode the first field member of an ECA1 archive into a [`Dataset`].
pub fn dataset_from_eca1(raw: Bytes) -> Result<Dataset, ArchiveError> {
    let r = Archive::from_reader(std::io::Cursor::new(raw))?;
    let (name, meta, t_max, vps) = {
        let m = r
            .members()
            .iter()
            .find(|m| m.kind == MemberKind::Field)
            .ok_or_else(|| ArchiveError::MemberNotFound("<any field>".to_string()))?;
        (
            m.name.clone(),
            m.meta,
            m.t_max as usize,
            m.values_per_slice as usize,
        )
    };
    if meta.ntheta * meta.nphi != vps {
        return Err(ArchiveError::Corrupt(format!(
            "member `{name}` stores {vps} values per slice on a {}×{} grid",
            meta.ntheta, meta.nphi
        )));
    }
    let data = r.read_field_all(&name)?;
    Ok(Dataset {
        data,
        t_max,
        npoints: vps,
        ntheta: meta.ntheta,
        nphi: meta.nphi,
        start_year: meta.start_year,
        tau: meta.tau,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{SyntheticEra5, SyntheticEra5Config};

    fn sample() -> Dataset {
        let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(8));
        generator.generate_member(0, 20)
    }

    #[test]
    fn eca1_roundtrip_is_exact_at_codec_precision() {
        let d = sample();
        for codec in Codec::ALL {
            let raw = dataset_to_eca1(&d, codec).unwrap();
            let back = dataset_from_eca1(raw).unwrap();
            assert_eq!(back.t_max, d.t_max);
            assert_eq!((back.ntheta, back.nphi), (d.ntheta, d.nphi));
            assert_eq!((back.start_year, back.tau), (d.start_year, d.tau));
            for (a, b) in d.data.iter().zip(&back.data) {
                assert_eq!(codec.quantize(*a), *b, "{}", codec.label());
            }
        }
    }
}
