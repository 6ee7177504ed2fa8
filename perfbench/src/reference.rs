//! The frozen reference: every simulated statistic of every op, checked
//! on every run. A mismatch fails the op.
//!
//! `reference.json` is written by `--freeze` from the program's own
//! measurement paths (and, for IEEE 1180, from the software fixed-point
//! IDCT) and cross-checked against the repository's published figures by
//! `--selftest`.

use hc_core::measure::Measurement;
use hc_idct::ieee1180::AccuracyStats;
use hc_serve::Json;

/// What one design point must measure.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignRef {
    /// `<frontend slug>:<label>` for Fig. 1 points, the cell label for
    /// matrix cells.
    pub key: String,
    pub t_l: u64,
    pub t_p: u64,
    pub fmax_mhz: f64,
    /// Normalized area of the `maxdsp=0` synthesis.
    pub area: u64,
    pub q: f64,
}

impl DesignRef {
    pub fn of(key: String, m: &Measurement) -> DesignRef {
        DesignRef {
            key,
            t_l: m.latency,
            t_p: m.periodicity,
            fmax_mhz: m.fmax_mhz,
            area: m.area_nodsp.normalized(),
            q: m.q,
        }
    }

    fn to_json(&self) -> Json {
        hc_serve::jobj! {
            "key" => self.key.as_str(),
            "t_l" => self.t_l,
            "t_p" => self.t_p,
            "fmax_mhz" => self.fmax_mhz,
            "area" => self.area,
            "q" => self.q,
        }
    }

    fn from_json(j: &Json) -> Option<DesignRef> {
        Some(DesignRef {
            key: j.get("key")?.as_str()?.to_owned(),
            t_l: j.get("t_l")?.as_u64()?,
            t_p: j.get("t_p")?.as_u64()?,
            fmax_mhz: j.get("fmax_mhz")?.as_f64()?,
            area: j.get("area")?.as_u64()?,
            q: j.get("q")?.as_f64()?,
        })
    }
}

/// The accuracy statistics of one IEEE 1180 range/sign run.
#[derive(Clone, Debug, PartialEq)]
pub struct RangeRef {
    pub l: i32,
    pub h: i32,
    pub negate: bool,
    pub ppe: i32,
    pub pmse: f64,
    pub omse: f64,
    pub pme: f64,
    pub ome: f64,
}

impl RangeRef {
    pub fn of(l: i32, h: i32, negate: bool, s: &AccuracyStats) -> RangeRef {
        RangeRef {
            l,
            h,
            negate,
            ppe: s.ppe,
            pmse: s.pmse,
            omse: s.omse,
            pme: s.pme,
            ome: s.ome,
        }
    }

    fn to_json(&self) -> Json {
        hc_serve::jobj! {
            "l" => u64::from(self.l.unsigned_abs()),
            "h" => u64::from(self.h.unsigned_abs()),
            "negate" => self.negate,
            "ppe" => u64::from(self.ppe.unsigned_abs()),
            "pmse" => self.pmse,
            "omse" => self.omse,
            "pme" => self.pme,
            "ome" => self.ome,
        }
    }

    fn from_json(j: &Json) -> Option<RangeRef> {
        let int = |k: &str| -> Option<i32> { i32::try_from(j.get(k)?.as_u64()?).ok() };
        Some(RangeRef {
            l: int("l")?,
            h: int("h")?,
            negate: j.get("negate")?.as_bool()?,
            ppe: int("ppe")?,
            pmse: j.get("pmse")?.as_f64()?,
            omse: j.get("omse")?.as_f64()?,
            pme: j.get("pme")?.as_f64()?,
            ome: j.get("ome")?.as_f64()?,
        })
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Reference {
    pub ieee1180: Vec<RangeRef>,
    pub fig1: Vec<DesignRef>,
    pub matrix: Vec<DesignRef>,
}

impl Reference {
    /// The reference compiled into this binary.
    pub fn frozen() -> Reference {
        Reference::parse(include_str!("../reference.json")).unwrap_or_default()
    }

    pub fn parse(text: &str) -> Option<Reference> {
        let j = Json::parse(text).ok()?;
        let designs = |k: &str| -> Option<Vec<DesignRef>> {
            j.get(k)?
                .as_arr()?
                .iter()
                .map(DesignRef::from_json)
                .collect()
        };
        Some(Reference {
            ieee1180: j
                .get("ieee1180")?
                .as_arr()?
                .iter()
                .map(RangeRef::from_json)
                .collect::<Option<_>>()?,
            fig1: designs("fig1")?,
            matrix: designs("matrix")?,
        })
    }

    pub fn to_json(&self) -> Json {
        hc_serve::jobj! {
            "ieee1180" => self.ieee1180.iter().map(RangeRef::to_json).collect::<Vec<_>>(),
            "fig1" => self.fig1.iter().map(DesignRef::to_json).collect::<Vec<_>>(),
            "matrix" => self.matrix.iter().map(DesignRef::to_json).collect::<Vec<_>>(),
        }
    }

    /// The Fig. 1 point or matrix cell frozen under `key`.
    pub fn design(&self, key: &str) -> Option<&DesignRef> {
        self.fig1.iter().chain(&self.matrix).find(|d| d.key == key)
    }

    pub fn range(&self, l: i32, h: i32, negate: bool) -> Option<&RangeRef> {
        self.ieee1180
            .iter()
            .find(|r| (r.l, r.h, r.negate) == (l, h, negate))
    }
}

/// Float equality up to the last few ulps of a JSON round trip.
pub fn same_f64(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// Checks a measured design against its frozen figures.
pub fn check_design(want: Option<&DesignRef>, got: &DesignRef) -> Result<(), String> {
    let Some(want) = want else {
        return Err(format!("{}: no frozen reference", got.key));
    };
    let ok = want.key == got.key
        && want.t_l == got.t_l
        && want.t_p == got.t_p
        && want.area == got.area
        && same_f64(want.fmax_mhz, got.fmax_mhz)
        && same_f64(want.q, got.q);
    if ok {
        Ok(())
    } else {
        Err(format!("{}: measured {got:?}, frozen {want:?}", got.key))
    }
}

/// Checks an IEEE 1180 run: identical statistics to the frozen software
/// path, and compliant.
pub fn check_range(want: Option<&RangeRef>, got: &RangeRef, compliant: bool) -> Result<(), String> {
    let Some(want) = want else {
        return Err(format!("range ({},{}): no frozen reference", got.l, got.h));
    };
    let ok = want.ppe == got.ppe
        && same_f64(want.pmse, got.pmse)
        && same_f64(want.omse, got.omse)
        && same_f64(want.pme, got.pme)
        && same_f64(want.ome, got.ome);
    match (ok, compliant) {
        (true, true) => Ok(()),
        (false, _) => Err(format!("measured {got:?}, frozen {want:?}")),
        (true, false) => Err(format!("range ({},{}) is not compliant", got.l, got.h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_reference_parses_and_round_trips() {
        let r = Reference::frozen();
        assert_eq!(r.ieee1180.len(), 6);
        assert_eq!(r.fig1.len(), 72);
        assert_eq!(r.matrix.len(), 28);
        let again = Reference::parse(&r.to_json().to_string()).expect("round trip");
        assert_eq!(again, r);
    }

    #[test]
    fn a_perturbed_reference_is_caught() {
        let r = Reference::frozen();
        for d in r.fig1.iter().chain(&r.matrix) {
            assert!(check_design(Some(d), d).is_ok());
            let mut bad = d.clone();
            bad.t_p += 1;
            assert!(check_design(Some(d), &bad).is_err(), "{}: T_P", d.key);
            let mut bad = d.clone();
            bad.q *= 1.0 + 1e-9;
            assert!(check_design(Some(d), &bad).is_err(), "{}: Q", d.key);
            let mut bad = d.clone();
            bad.area += 1;
            assert!(check_design(Some(d), &bad).is_err(), "{}: area", d.key);
        }
        for s in &r.ieee1180 {
            assert!(check_range(Some(s), s, true).is_ok());
            assert!(check_range(Some(s), s, false).is_err());
            let mut bad = s.clone();
            bad.omse += 1e-9;
            assert!(check_range(Some(s), &bad, true).is_err());
        }
        assert!(check_design(None, &r.fig1[0]).is_err());
    }
}
