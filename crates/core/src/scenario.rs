//! Declarative scenario matrix: typed, JSON-loadable experiment configs and
//! a deterministic conformance runner with golden-hash pins.
//!
//! The paper's "seamless" claim — one model spanning standard dycore test
//! cases, physics-suite variants, and global-to-regional configurations —
//! becomes testable here: a [`Scenario`] names an initial case × physics
//! suite {conventional, ML} × precision mode × resolution level ×
//! dyn-step mode × fault plan × optional regional refinement, composed
//! entirely from existing pieces (`cases.rs`, `swe_cases.rs`, [`RunConfig`],
//! [`RecoveryPolicy`](crate::RecoveryPolicy), the substrate targets). The
//! [`ScenarioRunner`] executes it deterministically and emits a
//! [`ScenarioArtifact`]: bitwise state hashes (the `checkpoint.rs` FNV
//! family), conservation/health diagnostics pinned by bit pattern, and
//! exact counters. Committed pins live in `scenarios/*.json`; `grist gate
//! scenarios` and `tests/integration_scenarios.rs` replay the matrix and
//! fail on any drift.
//!
//! Parsing is strict: unknown or missing fields are typed
//! [`ScenarioError`]s naming the offending field, never a panic — malformed
//! pins must fail loudly in CI, not deserialize to defaults.

use crate::cases::{
    add_baroclinic_jet, add_supercell_patch, add_tropical_cyclone, apply_held_suarez, HeldSuarez,
    TropicalCyclone,
};
use crate::checkpoint::{hash_f64_bits, hash_u32_seq};
use crate::config::RunConfig;
use crate::model::GristModel;
use crate::overlap::DynStepMode;
use grist_dycore::swe::{SwePhases, SweSolver, SweState};
use grist_dycore::swe_cases::{install_tc5_mountain, williamson_tc5, williamson_tc6};
use grist_dycore::{PrecisionMode, Real};
use grist_mesh::{windowed_mesh_quality, HaloLayout, HexMesh, Partition, RefinementWindow};
use grist_runtime::run_world;
use std::fmt;
use sunway_sim::{FaultPlan, FaultSite, Json, Substrate};

/// Schema tag of a scenario document.
pub const SCENARIO_SCHEMA: &str = "grist-scenario-v1";

/// A malformed, unknown, or unrunnable scenario — always names the field or
/// constraint at fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not valid JSON.
    Parse(String),
    /// A required field is absent.
    MissingField { field: String },
    /// A field this schema does not define (typo guard: strict parsing).
    UnknownField { field: String, allowed: String },
    /// A field holds a value outside its domain.
    BadValue { field: String, what: String },
    /// A well-formed combination this runner cannot execute.
    Unsupported { what: String },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::MissingField { field } => {
                write!(f, "scenario error: missing field {field}")
            }
            ScenarioError::UnknownField { field, allowed } => {
                write!(
                    f,
                    "scenario error: unknown field {field} (allowed: {allowed})"
                )
            }
            ScenarioError::BadValue { field, what } => {
                write!(f, "scenario error: bad value for {field}: {what}")
            }
            ScenarioError::Unsupported { what } => {
                write!(f, "scenario error: unsupported configuration: {what}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The initial-value case a scenario integrates.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseSpec {
    /// The plain aqua-planet rest state (the smoke workload).
    AquaPlanet,
    /// Idealized tropical cyclone (`cases::add_tropical_cyclone`).
    TropicalCyclone { rmax: f64, vmax: f64 },
    /// Baroclinic jet + perturbation (`cases::add_baroclinic_jet`).
    BaroclinicJet { u0: f64, perturb: f64 },
    /// Supercell patch at (lat, lon) degrees (`cases::add_supercell_patch`).
    Supercell { lat_deg: f64, lon_deg: f64 },
    /// Dry Held–Suarez forcing replacing the physics suite.
    HeldSuarez,
    /// Williamson TC5 (zonal flow over an isolated mountain), distributed
    /// over `ranks` ranks with the phased SWE dyn step.
    WilliamsonTc5 { steps: usize, dt: f64, ranks: usize },
    /// Williamson TC6 (Rossby–Haurwitz wave), distributed over `ranks`.
    WilliamsonTc6 { steps: usize, dt: f64, ranks: usize },
}

impl CaseSpec {
    /// Scenario cases split into two families with different runners.
    fn is_swe(&self) -> bool {
        matches!(
            self,
            CaseSpec::WilliamsonTc5 { .. } | CaseSpec::WilliamsonTc6 { .. }
        )
    }

    fn kind(&self) -> &'static str {
        match self {
            CaseSpec::AquaPlanet => "aqua_planet",
            CaseSpec::TropicalCyclone { .. } => "tropical_cyclone",
            CaseSpec::BaroclinicJet { .. } => "baroclinic_jet",
            CaseSpec::Supercell { .. } => "supercell",
            CaseSpec::HeldSuarez => "held_suarez",
            CaseSpec::WilliamsonTc5 { .. } => "williamson_tc5",
            CaseSpec::WilliamsonTc6 { .. } => "williamson_tc6",
        }
    }
}

/// Physics-suite ablation axis (Table 3's "Physics" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicsChoice {
    Conventional,
    Ml,
}

/// Execution target of every hot loop in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSpec {
    Serial,
    CpeTeams { cpes: usize },
}

/// Deterministic fault plan armed on the substrate; the run must complete
/// through the recovery ladder (`advance_resilient`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    pub seed: u64,
    pub dispatch_rate: f64,
    pub dma_rate: f64,
    pub max_retries: u32,
}

/// Variable-resolution regional refinement: a lat/lon window whose cells
/// carry extra weight in a refinement-aware partition (degrees here; the
/// mesh layer works in radians).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementSpec {
    pub lat_min_deg: f64,
    pub lat_max_deg: f64,
    pub lon_min_deg: f64,
    pub lon_max_deg: f64,
    pub weight: f64,
    pub parts: usize,
    pub refine_passes: usize,
}

impl RefinementSpec {
    /// The mesh-layer window (radians).
    pub fn window(&self) -> RefinementWindow {
        RefinementWindow {
            lat_min: self.lat_min_deg.to_radians(),
            lat_max: self.lat_max_deg.to_radians(),
            lon_min: self.lon_min_deg.to_radians(),
            lon_max: self.lon_max_deg.to_radians(),
            weight: self.weight,
        }
    }
}

/// One cell of the scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    pub case: CaseSpec,
    pub physics: PhysicsChoice,
    pub precision: PrecisionMode,
    /// Icosahedral grid level.
    pub level: u32,
    /// Vertical layers (coupled cases; ignored by SWE cases).
    pub nlev: usize,
    pub target: TargetSpec,
    /// Halo-exchange scheduling for distributed SWE cases.
    pub dyn_mode: DynStepMode,
    /// Physics windows to integrate (coupled cases; ignored by SWE cases).
    pub phy_steps: usize,
    pub fault: Option<FaultSpec>,
    pub refinement: Option<RefinementSpec>,
}

// ---------------------------------------------------------------------------
// Strict JSON parsing
// ---------------------------------------------------------------------------

fn expect_obj<'a>(
    j: &'a Json,
    ctx: &str,
    allowed: &[&str],
) -> Result<&'a [(String, Json)], ScenarioError> {
    let fields = j.as_obj().ok_or_else(|| ScenarioError::BadValue {
        field: ctx.into(),
        what: "expected an object".into(),
    })?;
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(ScenarioError::UnknownField {
                field: format!("{ctx}.{k}"),
                allowed: allowed.join(", "),
            });
        }
    }
    Ok(fields)
}

fn req<'a>(j: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, ScenarioError> {
    j.get(key).ok_or_else(|| ScenarioError::MissingField {
        field: format!("{ctx}.{key}"),
    })
}

fn req_str<'a>(j: &'a Json, ctx: &str, key: &str) -> Result<&'a str, ScenarioError> {
    req(j, ctx, key)?
        .as_str()
        .ok_or_else(|| ScenarioError::BadValue {
            field: format!("{ctx}.{key}"),
            what: "expected a string".into(),
        })
}

fn req_f64(j: &Json, ctx: &str, key: &str) -> Result<f64, ScenarioError> {
    req(j, ctx, key)?
        .as_f64()
        .ok_or_else(|| ScenarioError::BadValue {
            field: format!("{ctx}.{key}"),
            what: "expected a number".into(),
        })
}

fn req_u64(j: &Json, ctx: &str, key: &str) -> Result<u64, ScenarioError> {
    req(j, ctx, key)?
        .as_u64()
        .ok_or_else(|| ScenarioError::BadValue {
            field: format!("{ctx}.{key}"),
            what: "expected a non-negative integer".into(),
        })
}

impl Scenario {
    /// Parse the `config` object of a scenario document.
    pub fn from_json(j: &Json, ctx: &str) -> Result<Self, ScenarioError> {
        expect_obj(
            j,
            ctx,
            &[
                "name",
                "case",
                "physics",
                "precision",
                "level",
                "nlev",
                "target",
                "dyn_mode",
                "phy_steps",
                "fault",
                "refinement",
            ],
        )?;
        let name = req_str(j, ctx, "name")?.to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ScenarioError::BadValue {
                field: format!("{ctx}.name"),
                what: format!("{name:?} is not a [a-z0-9_]+ identifier"),
            });
        }

        let case_j = req(j, ctx, "case")?;
        let cctx = format!("{ctx}.case");
        let kind = req_str(case_j, &cctx, "kind")?;
        let case = match kind {
            "aqua_planet" => {
                expect_obj(case_j, &cctx, &["kind"])?;
                CaseSpec::AquaPlanet
            }
            "tropical_cyclone" => {
                expect_obj(case_j, &cctx, &["kind", "rmax", "vmax"])?;
                CaseSpec::TropicalCyclone {
                    rmax: req_f64(case_j, &cctx, "rmax")?,
                    vmax: req_f64(case_j, &cctx, "vmax")?,
                }
            }
            "baroclinic_jet" => {
                expect_obj(case_j, &cctx, &["kind", "u0", "perturb"])?;
                CaseSpec::BaroclinicJet {
                    u0: req_f64(case_j, &cctx, "u0")?,
                    perturb: req_f64(case_j, &cctx, "perturb")?,
                }
            }
            "supercell" => {
                expect_obj(case_j, &cctx, &["kind", "lat_deg", "lon_deg"])?;
                CaseSpec::Supercell {
                    lat_deg: req_f64(case_j, &cctx, "lat_deg")?,
                    lon_deg: req_f64(case_j, &cctx, "lon_deg")?,
                }
            }
            "held_suarez" => {
                expect_obj(case_j, &cctx, &["kind"])?;
                CaseSpec::HeldSuarez
            }
            "williamson_tc5" | "williamson_tc6" => {
                expect_obj(case_j, &cctx, &["kind", "steps", "dt", "ranks"])?;
                let steps = req_u64(case_j, &cctx, "steps")? as usize;
                let dt = req_f64(case_j, &cctx, "dt")?;
                let ranks = req_u64(case_j, &cctx, "ranks")? as usize;
                if ranks == 0 {
                    return Err(ScenarioError::BadValue {
                        field: format!("{cctx}.ranks"),
                        what: "must be >= 1".into(),
                    });
                }
                if kind == "williamson_tc5" {
                    CaseSpec::WilliamsonTc5 { steps, dt, ranks }
                } else {
                    CaseSpec::WilliamsonTc6 { steps, dt, ranks }
                }
            }
            other => {
                return Err(ScenarioError::BadValue {
                    field: format!("{cctx}.kind"),
                    what: format!(
                        "{other:?} is not a case kind (aqua_planet, tropical_cyclone, \
                         baroclinic_jet, supercell, held_suarez, williamson_tc5, williamson_tc6)"
                    ),
                })
            }
        };

        let physics = match req_str(j, ctx, "physics")? {
            "conventional" => PhysicsChoice::Conventional,
            "ml" => PhysicsChoice::Ml,
            other => {
                return Err(ScenarioError::BadValue {
                    field: format!("{ctx}.physics"),
                    what: format!("{other:?} is not one of conventional, ml"),
                })
            }
        };
        let precision = match req_str(j, ctx, "precision")? {
            "double" => PrecisionMode::Double,
            "mixed" => PrecisionMode::Mixed,
            other => {
                return Err(ScenarioError::BadValue {
                    field: format!("{ctx}.precision"),
                    what: format!("{other:?} is not one of double, mixed"),
                })
            }
        };
        let level = req_u64(j, ctx, "level")? as u32;
        let nlev = req_u64(j, ctx, "nlev")? as usize;
        let target_j = req(j, ctx, "target")?;
        let tctx = format!("{ctx}.target");
        let target = match req_str(target_j, &tctx, "kind")? {
            "serial" => {
                expect_obj(target_j, &tctx, &["kind"])?;
                TargetSpec::Serial
            }
            "cpe_teams" => {
                expect_obj(target_j, &tctx, &["kind", "cpes"])?;
                TargetSpec::CpeTeams {
                    cpes: req_u64(target_j, &tctx, "cpes")? as usize,
                }
            }
            other => {
                return Err(ScenarioError::BadValue {
                    field: format!("{tctx}.kind"),
                    what: format!("{other:?} is not one of serial, cpe_teams"),
                })
            }
        };
        let dyn_mode = match req_str(j, ctx, "dyn_mode")? {
            "synchronous" => DynStepMode::Synchronous,
            "overlapped" => DynStepMode::Overlapped,
            other => {
                return Err(ScenarioError::BadValue {
                    field: format!("{ctx}.dyn_mode"),
                    what: format!("{other:?} is not one of synchronous, overlapped"),
                })
            }
        };
        let phy_steps = req_u64(j, ctx, "phy_steps")? as usize;

        let fault = match j.get("fault") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let fctx = format!("{ctx}.fault");
                expect_obj(
                    f,
                    &fctx,
                    &["seed", "dispatch_rate", "dma_rate", "max_retries"],
                )?;
                Some(FaultSpec {
                    seed: req_u64(f, &fctx, "seed")?,
                    dispatch_rate: req_f64(f, &fctx, "dispatch_rate")?,
                    dma_rate: req_f64(f, &fctx, "dma_rate")?,
                    max_retries: req_u64(f, &fctx, "max_retries")? as u32,
                })
            }
        };
        let refinement = match j.get("refinement") {
            None | Some(Json::Null) => None,
            Some(r) => {
                let rctx = format!("{ctx}.refinement");
                expect_obj(
                    r,
                    &rctx,
                    &[
                        "lat_min_deg",
                        "lat_max_deg",
                        "lon_min_deg",
                        "lon_max_deg",
                        "weight",
                        "parts",
                        "refine_passes",
                    ],
                )?;
                Some(RefinementSpec {
                    lat_min_deg: req_f64(r, &rctx, "lat_min_deg")?,
                    lat_max_deg: req_f64(r, &rctx, "lat_max_deg")?,
                    lon_min_deg: req_f64(r, &rctx, "lon_min_deg")?,
                    lon_max_deg: req_f64(r, &rctx, "lon_max_deg")?,
                    weight: req_f64(r, &rctx, "weight")?,
                    parts: req_u64(r, &rctx, "parts")? as usize,
                    refine_passes: req_u64(r, &rctx, "refine_passes")? as usize,
                })
            }
        };

        let s = Scenario {
            name,
            case,
            physics,
            precision,
            level,
            nlev,
            target,
            dyn_mode,
            phy_steps,
            fault,
            refinement,
        };
        s.validate()?;
        Ok(s)
    }

    /// Cross-field rules: catch combinations the runner cannot execute with
    /// a typed error at load time, not a panic at run time.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.level > 5 {
            return Err(ScenarioError::BadValue {
                field: "config.level".into(),
                what: format!("level {} too large for a regression pin", self.level),
            });
        }
        if self.case.is_swe() {
            if self.precision != PrecisionMode::Double {
                return Err(ScenarioError::Unsupported {
                    what: "SWE cases run the f64 phased dyn step only (config.precision must be \
                           \"double\")"
                        .into(),
                });
            }
            if self.physics != PhysicsChoice::Conventional {
                return Err(ScenarioError::Unsupported {
                    what: "SWE cases carry no physics suite (config.physics must be \
                           \"conventional\")"
                        .into(),
                });
            }
            if self.fault.is_some() {
                return Err(ScenarioError::Unsupported {
                    what: "SWE cases take no fault plan (config.fault must be absent)".into(),
                });
            }
        } else {
            if self.dyn_mode == DynStepMode::Overlapped {
                return Err(ScenarioError::Unsupported {
                    what: "overlapped halo scheduling only applies to the distributed SWE cases \
                           (config.dyn_mode must be \"synchronous\" here)"
                        .into(),
                });
            }
            if self.phy_steps == 0 {
                return Err(ScenarioError::BadValue {
                    field: "config.phy_steps".into(),
                    what: "must be >= 1 for coupled cases".into(),
                });
            }
            if matches!(self.case, CaseSpec::HeldSuarez)
                && self.physics != PhysicsChoice::Conventional
            {
                return Err(ScenarioError::Unsupported {
                    what: "Held-Suarez replaces the physics suite entirely (config.physics must \
                           be \"conventional\")"
                        .into(),
                });
            }
        }
        if let Some(f) = &self.fault {
            for (field, rate) in [
                ("config.fault.dispatch_rate", f.dispatch_rate),
                ("config.fault.dma_rate", f.dma_rate),
            ] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(ScenarioError::BadValue {
                        field: field.into(),
                        what: format!("rate {rate} outside [0, 1]"),
                    });
                }
            }
            if self.target == TargetSpec::Serial && f.dispatch_rate > 0.0 {
                return Err(ScenarioError::Unsupported {
                    what: "dispatch faults need a cpe_teams target to retry/degrade against".into(),
                });
            }
        }
        if let Some(r) = &self.refinement {
            if r.weight < 1.0 || !r.weight.is_finite() {
                return Err(ScenarioError::BadValue {
                    field: "config.refinement.weight".into(),
                    what: format!("{} must be a finite weight >= 1", r.weight),
                });
            }
            if r.parts < 2 {
                return Err(ScenarioError::BadValue {
                    field: "config.refinement.parts".into(),
                    what: "must be >= 2".into(),
                });
            }
            if r.lat_min_deg >= r.lat_max_deg {
                return Err(ScenarioError::BadValue {
                    field: "config.refinement.lat_min_deg".into(),
                    what: format!("window [{}, {}] is empty", r.lat_min_deg, r.lat_max_deg),
                });
            }
        }
        Ok(())
    }

    /// Serialize back to the `config` object. `from_json(to_json(s)) == s`.
    pub fn to_json(&self) -> Json {
        let case = match &self.case {
            CaseSpec::AquaPlanet => {
                Json::Obj(vec![("kind".into(), Json::Str("aqua_planet".into()))])
            }
            CaseSpec::TropicalCyclone { rmax, vmax } => Json::Obj(vec![
                ("kind".into(), Json::Str("tropical_cyclone".into())),
                ("rmax".into(), Json::Num(*rmax)),
                ("vmax".into(), Json::Num(*vmax)),
            ]),
            CaseSpec::BaroclinicJet { u0, perturb } => Json::Obj(vec![
                ("kind".into(), Json::Str("baroclinic_jet".into())),
                ("u0".into(), Json::Num(*u0)),
                ("perturb".into(), Json::Num(*perturb)),
            ]),
            CaseSpec::Supercell { lat_deg, lon_deg } => Json::Obj(vec![
                ("kind".into(), Json::Str("supercell".into())),
                ("lat_deg".into(), Json::Num(*lat_deg)),
                ("lon_deg".into(), Json::Num(*lon_deg)),
            ]),
            CaseSpec::HeldSuarez => {
                Json::Obj(vec![("kind".into(), Json::Str("held_suarez".into()))])
            }
            CaseSpec::WilliamsonTc5 { steps, dt, ranks }
            | CaseSpec::WilliamsonTc6 { steps, dt, ranks } => Json::Obj(vec![
                ("kind".into(), Json::Str(self.case.kind().into())),
                ("steps".into(), Json::Num(*steps as f64)),
                ("dt".into(), Json::Num(*dt)),
                ("ranks".into(), Json::Num(*ranks as f64)),
            ]),
        };
        let target = match self.target {
            TargetSpec::Serial => Json::Obj(vec![("kind".into(), Json::Str("serial".into()))]),
            TargetSpec::CpeTeams { cpes } => Json::Obj(vec![
                ("kind".into(), Json::Str("cpe_teams".into())),
                ("cpes".into(), Json::Num(cpes as f64)),
            ]),
        };
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("case".into(), case),
            (
                "physics".into(),
                Json::Str(
                    match self.physics {
                        PhysicsChoice::Conventional => "conventional",
                        PhysicsChoice::Ml => "ml",
                    }
                    .into(),
                ),
            ),
            (
                "precision".into(),
                Json::Str(
                    match self.precision {
                        PrecisionMode::Double => "double",
                        PrecisionMode::Mixed => "mixed",
                    }
                    .into(),
                ),
            ),
            ("level".into(), Json::Num(self.level as f64)),
            ("nlev".into(), Json::Num(self.nlev as f64)),
            ("target".into(), target),
            (
                "dyn_mode".into(),
                Json::Str(
                    match self.dyn_mode {
                        DynStepMode::Synchronous => "synchronous",
                        DynStepMode::Overlapped => "overlapped",
                    }
                    .into(),
                ),
            ),
            ("phy_steps".into(), Json::Num(self.phy_steps as f64)),
        ];
        if let Some(f) = &self.fault {
            fields.push((
                "fault".into(),
                Json::Obj(vec![
                    ("seed".into(), Json::Num(f.seed as f64)),
                    ("dispatch_rate".into(), Json::Num(f.dispatch_rate)),
                    ("dma_rate".into(), Json::Num(f.dma_rate)),
                    ("max_retries".into(), Json::Num(f.max_retries as f64)),
                ]),
            ));
        }
        if let Some(r) = &self.refinement {
            fields.push((
                "refinement".into(),
                Json::Obj(vec![
                    ("lat_min_deg".into(), Json::Num(r.lat_min_deg)),
                    ("lat_max_deg".into(), Json::Num(r.lat_max_deg)),
                    ("lon_min_deg".into(), Json::Num(r.lon_min_deg)),
                    ("lon_max_deg".into(), Json::Num(r.lon_max_deg)),
                    ("weight".into(), Json::Num(r.weight)),
                    ("parts".into(), Json::Num(r.parts as f64)),
                    ("refine_passes".into(), Json::Num(r.refine_passes as f64)),
                ]),
            ));
        }
        Json::Obj(fields)
    }
}

// ---------------------------------------------------------------------------
// Golden artifacts
// ---------------------------------------------------------------------------

/// The pinned outcome of one scenario run: bitwise hashes, diagnostics by
/// bit pattern, exact counters. Two runs match iff [`Self::diff`] is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArtifact {
    pub name: String,
    /// Named 16-hex FNV fingerprints ("state", "state.rank0", "partition").
    pub hashes: Vec<(String, String)>,
    /// Named diagnostics, compared by IEEE-754 bit pattern.
    pub diagnostics: Vec<(String, f64)>,
    /// Named counters, compared exactly.
    pub counters: Vec<(String, u64)>,
}

impl ScenarioArtifact {
    /// Every way `got` differs from this pin (empty = bitwise match), one
    /// line per leaf. A key on one side only is drift too — lost coverage
    /// on the pinned side, an un-pinned entry on the other — and is named
    /// alone, never as a dump of both key lists.
    pub fn diff(&self, got: &ScenarioArtifact) -> Vec<String> {
        let mut drift = Vec::new();
        diff_section(&mut drift, "hash", &self.hashes, &got.hashes, String::clone);
        // Diagnostics are equal iff their bit patterns are.
        let bits = |side: &[(String, f64)]| -> Vec<(String, u64)> {
            side.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
        };
        diff_section(
            &mut drift,
            "diagnostic",
            &bits(&self.diagnostics),
            &bits(&got.diagnostics),
            |b| format!("{:?} ({b:016x})", f64::from_bits(*b)),
        );
        diff_section(
            &mut drift,
            "counter",
            &self.counters,
            &got.counters,
            u64::to_string,
        );
        drift
    }

    /// Serialize as the `golden` object of a scenario document. Diagnostics
    /// are stored twice: human-readable numbers plus authoritative bit
    /// patterns (`bits` is what [`Self::from_json`] reads back).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "hashes".into(),
                Json::Obj(
                    self.hashes
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "diagnostics".into(),
                Json::Obj(
                    self.diagnostics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "bits".into(),
                Json::Obj(
                    self.diagnostics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(format!("{:016x}", v.to_bits()))))
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Strict parse of a `golden` object.
    pub fn from_json(j: &Json, ctx: &str) -> Result<Self, ScenarioError> {
        expect_obj(
            j,
            ctx,
            &["name", "hashes", "diagnostics", "bits", "counters"],
        )?;
        let name = req_str(j, ctx, "name")?.to_string();
        let hashes_j = req(j, ctx, "hashes")?
            .as_obj()
            .ok_or_else(|| ScenarioError::BadValue {
                field: format!("{ctx}.hashes"),
                what: "expected an object".into(),
            })?;
        let mut hashes = Vec::new();
        for (k, v) in hashes_j {
            let s = v.as_str().ok_or_else(|| ScenarioError::BadValue {
                field: format!("{ctx}.hashes.{k}"),
                what: "expected a hex string".into(),
            })?;
            if s.len() != 16 || u64::from_str_radix(s, 16).is_err() {
                return Err(ScenarioError::BadValue {
                    field: format!("{ctx}.hashes.{k}"),
                    what: format!("{s:?} is not a 16-hex-digit hash"),
                });
            }
            hashes.push((k.clone(), s.to_string()));
        }
        // `bits` is authoritative for diagnostics; `diagnostics` is the
        // readable shadow and must list the same keys.
        let bits_j = req(j, ctx, "bits")?
            .as_obj()
            .ok_or_else(|| ScenarioError::BadValue {
                field: format!("{ctx}.bits"),
                what: "expected an object".into(),
            })?;
        let readable_j =
            req(j, ctx, "diagnostics")?
                .as_obj()
                .ok_or_else(|| ScenarioError::BadValue {
                    field: format!("{ctx}.diagnostics"),
                    what: "expected an object".into(),
                })?;
        if bits_j.len() != readable_j.len()
            || bits_j.iter().zip(readable_j).any(|((a, _), (b, _))| a != b)
        {
            return Err(ScenarioError::BadValue {
                field: format!("{ctx}.bits"),
                what: "keys disagree with .diagnostics".into(),
            });
        }
        let mut diagnostics = Vec::new();
        for (k, v) in bits_j {
            let s = v.as_str().ok_or_else(|| ScenarioError::BadValue {
                field: format!("{ctx}.bits.{k}"),
                what: "expected a hex string".into(),
            })?;
            let b = u64::from_str_radix(s, 16).map_err(|_| ScenarioError::BadValue {
                field: format!("{ctx}.bits.{k}"),
                what: format!("{s:?} is not a hex bit pattern"),
            })?;
            diagnostics.push((k.clone(), f64::from_bits(b)));
        }
        let counters_j =
            req(j, ctx, "counters")?
                .as_obj()
                .ok_or_else(|| ScenarioError::BadValue {
                    field: format!("{ctx}.counters"),
                    what: "expected an object".into(),
                })?;
        let mut counters = Vec::new();
        for (k, v) in counters_j {
            let n = v.as_u64().ok_or_else(|| ScenarioError::BadValue {
                field: format!("{ctx}.counters.{k}"),
                what: "expected a non-negative integer".into(),
            })?;
            counters.push((k.clone(), n));
        }
        Ok(ScenarioArtifact {
            name,
            hashes,
            diagnostics,
            counters,
        })
    }
}

/// One section of [`ScenarioArtifact::diff`]: a line per key whose value
/// differs or that only one side has.
fn diff_section<T: PartialEq>(
    drift: &mut Vec<String>,
    what: &str,
    pinned: &[(String, T)],
    got: &[(String, T)],
    show: impl Fn(&T) -> String,
) {
    fn find<'a, T>(side: &'a [(String, T)], key: &str) -> Option<&'a T> {
        side.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    for (k, want) in pinned {
        match find(got, k) {
            None => drift.push(format!("{what} {k}: pinned {}, missing", show(want))),
            Some(g) if g != want => drift.push(format!(
                "{what} {k}: pinned {}, got {}",
                show(want),
                show(g)
            )),
            Some(_) => {}
        }
    }
    for (k, g) in got {
        if find(pinned, k).is_none() {
            drift.push(format!(
                "{what} {k}: not in pin (got {}) — re-pin with --update",
                show(g)
            ));
        }
    }
}

/// Read a pin document `{schema, config, golden?}` — the one strict reader
/// of the shape `scenarios/*.json` and `BENCH_*.json` share. `config` comes
/// back untyped: a scenario types it with [`Scenario::from_json`]
/// ([`parse_scenario_file`]), a bench suite compares it as it is.
pub fn parse_pin_file(text: &str) -> Result<(Json, Option<ScenarioArtifact>), ScenarioError> {
    let doc = Json::parse(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
    expect_obj(&doc, "document", &["schema", "config", "golden"])?;
    match req_str(&doc, "document", "schema")? {
        SCENARIO_SCHEMA => {}
        other => {
            return Err(ScenarioError::BadValue {
                field: "document.schema".into(),
                what: format!("{other:?}, expected {SCENARIO_SCHEMA:?}"),
            })
        }
    }
    let config = req(&doc, "document", "config")?.clone();
    let golden = match doc.get("golden") {
        None | Some(Json::Null) => None,
        Some(g) => Some(ScenarioArtifact::from_json(g, "golden")?),
    };
    Ok((config, golden))
}

/// Read a full scenario document: [`parse_pin_file`] with a typed `config`.
pub fn parse_scenario_file(
    text: &str,
) -> Result<(Scenario, Option<ScenarioArtifact>), ScenarioError> {
    let (config, golden) = parse_pin_file(text)?;
    Ok((Scenario::from_json(&config, "config")?, golden))
}

/// Serialize a pin document — the one writer [`parse_pin_file`] reads.
pub fn pin_file_json(config: &Json, golden: Option<&ScenarioArtifact>) -> String {
    let mut fields = vec![
        ("schema".into(), Json::Str(SCENARIO_SCHEMA.into())),
        ("config".into(), config.clone()),
    ];
    if let Some(g) = golden {
        fields.push(("golden".into(), g.to_json()));
    }
    Json::Obj(fields).pretty()
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// What one scenario execution produced.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub artifact: ScenarioArtifact,
    /// Metrics-registry snapshot of the run (rank 0 for distributed cases) —
    /// the per-scenario JSON document CI uploads.
    pub metrics_json: String,
}

/// Executes [`Scenario`]s deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioRunner;

impl ScenarioRunner {
    pub fn new() -> Self {
        ScenarioRunner
    }

    /// Run `s` to completion and fingerprint the outcome. Deterministic: the
    /// same scenario on the same build produces a bitwise-identical
    /// [`ScenarioArtifact`] on every run.
    pub fn run(&self, s: &Scenario) -> Result<ScenarioRun, ScenarioError> {
        s.validate()?;
        let mut run = match &s.case {
            CaseSpec::WilliamsonTc5 { steps, dt, ranks } => run_swe(s, *steps, *dt, *ranks, true)?,
            CaseSpec::WilliamsonTc6 { steps, dt, ranks } => run_swe(s, *steps, *dt, *ranks, false)?,
            _ => match s.precision {
                PrecisionMode::Double => run_coupled::<f64>(s)?,
                PrecisionMode::Mixed => run_coupled::<f32>(s)?,
            },
        };
        if let Some(r) = &s.refinement {
            append_refinement(&mut run.artifact, r, s.level)?;
        }
        Ok(run)
    }
}

fn make_substrate(target: TargetSpec) -> Substrate {
    match target {
        TargetSpec::Serial => Substrate::serial(),
        TargetSpec::CpeTeams { cpes } => Substrate::cpe_teams(cpes),
    }
}

fn run_coupled<R: Real>(s: &Scenario) -> Result<ScenarioRun, ScenarioError> {
    let cfg = RunConfig::for_level(s.level, s.nlev)
        .with_precision(s.precision)
        .with_ml_physics(s.physics == PhysicsChoice::Ml);
    let sub = make_substrate(s.target);
    if let Some(f) = &s.fault {
        sub.arm_faults(
            FaultPlan::new(f.seed)
                .with_rate(FaultSite::Dispatch, f.dispatch_rate)
                .with_rate(FaultSite::Dma, f.dma_rate)
                .with_max_retries(f.max_retries),
        );
    }
    let mut model = GristModel::<R>::with_substrate(cfg, sub);
    match &s.case {
        CaseSpec::AquaPlanet | CaseSpec::HeldSuarez => {}
        CaseSpec::TropicalCyclone { rmax, vmax } => {
            let tc = TropicalCyclone {
                rmax: *rmax,
                vmax: *vmax,
                ..Default::default()
            };
            add_tropical_cyclone(&mut model, &tc);
        }
        CaseSpec::BaroclinicJet { u0, perturb } => add_baroclinic_jet(&mut model, *u0, *perturb),
        CaseSpec::Supercell { lat_deg, lon_deg } => {
            add_supercell_patch(&mut model, lat_deg.to_radians(), lon_deg.to_radians())
        }
        CaseSpec::WilliamsonTc5 { .. } | CaseSpec::WilliamsonTc6 { .. } => unreachable!(),
    }

    if matches!(s.case, CaseSpec::HeldSuarez) {
        // Dry dynamical-core benchmark: HS forcing every dyn step, no moist
        // physics. A "phy step" counts one physics-cadence window of dyn
        // steps so run lengths stay comparable across cases.
        let hs = HeldSuarez::default();
        let dt = model.config.dt_dyn;
        let n = s.phy_steps * model.config.dyn_per_phy().max(1);
        for _ in 0..n {
            model.step_dyn();
            apply_held_suarez(&mut model, &hs, dt);
        }
    } else {
        let window = s.phy_steps as f64 * model.config.dt_phy;
        if s.fault.is_some() {
            let out = model.advance_resilient(window);
            if !out.completed {
                return Err(ScenarioError::Unsupported {
                    what: format!(
                        "fault plan overwhelmed the recovery ladder: {}",
                        out.final_health.diagnosis
                    ),
                });
            }
        } else {
            model.advance(window);
        }
    }

    let health = model.health();
    let ps = model.surface_pressure();
    let ps_mean = ps.iter().sum::<f64>() / ps.len() as f64;
    let u_max = model
        .state
        .u
        .to_f64_vec()
        .iter()
        .fold(0.0f64, |a, &b| a.max(b.abs()));
    let precip_total = model.precip_accum.iter().sum::<f64>();
    let artifact = ScenarioArtifact {
        name: s.name.clone(),
        hashes: vec![("state".into(), format!("{:016x}", model.state_hash()))],
        diagnostics: vec![
            ("ps_mean".into(), ps_mean),
            ("u_max".into(), u_max),
            ("precip_total".into(), precip_total),
            ("time_s".into(), model.time_s),
        ],
        counters: vec![
            (
                "health.scans".into(),
                model.metrics().counter("health.scans"),
            ),
            (
                "checkpoint.captures".into(),
                model.metrics().counter("checkpoint.captures"),
            ),
            (
                "recovery.restores".into(),
                model.metrics().counter("recovery.restores"),
            ),
            (
                "fault.injected".into(),
                model.metrics().counter("fault.injected"),
            ),
            (
                "fault.retries".into(),
                model.metrics().counter("fault.retries"),
            ),
            (
                "fault.degradations".into(),
                model.metrics().counter("fault.degradations"),
            ),
            (
                "health.final_corrupt".into(),
                (health.state == crate::health::RunState::Corrupt) as u64,
            ),
            (
                "tracer.cfl_violations".into(),
                model.metrics().counter("tracer.cfl_violations"),
            ),
        ],
    };
    Ok(ScenarioRun {
        artifact,
        metrics_json: model.metrics_json(),
    })
}

fn swe_init(solver: &mut SweSolver<f64>, tc5: bool) -> SweState<f64> {
    if tc5 {
        let mut state = williamson_tc5::<f64>(&solver.mesh);
        install_tc5_mountain(solver, &mut state);
        state
    } else {
        williamson_tc6::<f64>(&solver.mesh)
    }
}

fn run_swe(
    s: &Scenario,
    steps: usize,
    dt: f64,
    ranks: usize,
    tc5: bool,
) -> Result<ScenarioRun, ScenarioError> {
    let mesh = HexMesh::build(s.level);
    let partition = Partition::build(&mesh, ranks, 2);
    let layout = HaloLayout::build(&mesh, &partition, 2);

    // Serial reference for the conservation diagnostics: the distributed
    // owned cells are bitwise-equal to this trajectory (pinned by the
    // overlap suite), so global invariants are computed where they are
    // cheap and unambiguous.
    let mut sref = SweSolver::<f64>::new(mesh.clone());
    let mut sstate = swe_init(&mut sref, tc5);
    let mass0 = sref.total_mass(&sstate);
    let energy0 = sref.total_energy(&sstate);
    for _ in 0..steps {
        sref.step_rk3(&mut sstate, dt);
    }
    let mass = sref.total_mass(&sstate);
    let energy = sref.total_energy(&sstate);

    let level = s.level;
    let target = s.target;
    let mode = s.dyn_mode;
    let layout_ref = &layout;
    let (results, _) = run_world(ranks, move |mut ctx| {
        let mesh = HexMesh::build(level);
        let locale = &layout_ref.locales[ctx.rank];
        let split = locale.phase_split(&mesh, 1);
        let sub = make_substrate(target);
        let mut solver = SweSolver::<f64>::with_substrate(mesh, sub.clone());
        let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
        let mut state = swe_init(&mut solver, tc5);
        let mut messages = 0u64;
        for step in 0..steps {
            let receipt = crate::overlap::swe_dyn_step(
                &mut solver,
                &mut state,
                dt,
                &mut ctx,
                locale,
                &phases,
                700 + step as u32,
                mode,
                Some(sub.metrics()),
                None,
            )
            .expect("fault-free exchange");
            messages += receipt.messages_sent;
        }
        let rank_hash = hash_f64_bits(&[state.h.as_slice(), state.u.as_slice()]);
        let metrics_json = if ctx.rank == 0 {
            Some(sub.metrics().snapshot().to_json())
        } else {
            None
        };
        (rank_hash, messages, metrics_json)
    });

    let mut hashes = Vec::with_capacity(ranks);
    let mut messages_total = 0u64;
    let mut metrics_json = String::from("{}\n");
    for (rank, (h, m, mj)) in results.into_iter().enumerate() {
        hashes.push((format!("state.rank{rank}"), format!("{h:016x}")));
        messages_total += m;
        if let Some(mj) = mj {
            metrics_json = mj;
        }
    }
    let artifact = ScenarioArtifact {
        name: s.name.clone(),
        hashes,
        diagnostics: vec![
            ("mass".into(), mass),
            ("energy".into(), energy),
            ("mass_drift".into(), (mass - mass0) / mass0),
            ("energy_drift".into(), (energy - energy0) / energy0),
        ],
        counters: vec![("swe.messages".into(), messages_total)],
    };
    Ok(ScenarioRun {
        artifact,
        metrics_json,
    })
}

/// Build the refinement-aware partition, gate its quality, and pin it.
fn append_refinement(
    artifact: &mut ScenarioArtifact,
    r: &RefinementSpec,
    level: u32,
) -> Result<(), ScenarioError> {
    let mesh = HexMesh::build(level);
    let window = r.window();
    let n_window = window.cells(&mesh).len();
    if n_window == 0 {
        return Err(ScenarioError::BadValue {
            field: "config.refinement".into(),
            what: "window contains no cells at this level".into(),
        });
    }
    let p = Partition::build_refined(&mesh, r.parts, r.refine_passes, &window);
    let wq = p.weighted_quality(&mesh, &window.weights(&mesh));
    // Quality gates: the refinement-aware partition must still balance the
    // weighted load, and the windowed mesh statistics must look like the
    // global grid (the precondition for densifying the region).
    if wq.imbalance > 1.30 {
        return Err(ScenarioError::BadValue {
            field: "config.refinement".into(),
            what: format!("weighted imbalance {} exceeds the 1.30 gate", wq.imbalance),
        });
    }
    let mq = windowed_mesh_quality(&mesh, &window);
    if mq.orthogonality_defect.max > 1e-9 {
        return Err(ScenarioError::BadValue {
            field: "config.refinement".into(),
            what: format!(
                "windowed orthogonality defect {} exceeds the 1e-9 gate",
                mq.orthogonality_defect.max
            ),
        });
    }
    artifact.hashes.push((
        "partition".into(),
        format!("{:016x}", hash_u32_seq(&p.part)),
    ));
    artifact
        .diagnostics
        .push(("refine.weighted_imbalance".into(), wq.imbalance));
    artifact
        .diagnostics
        .push(("refine.edge_cut".into(), wq.edge_cut as f64));
    artifact
        .diagnostics
        .push(("refine.regularity_mean".into(), mq.cell_regularity.mean));
    artifact
        .counters
        .push(("refine.window_cells".into(), n_window as u64));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            name: "unit_aqua".into(),
            case: CaseSpec::AquaPlanet,
            physics: PhysicsChoice::Conventional,
            precision: PrecisionMode::Double,
            level: 2,
            nlev: 6,
            target: TargetSpec::Serial,
            dyn_mode: DynStepMode::Synchronous,
            phy_steps: 1,
            fault: None,
            refinement: None,
        }
    }

    #[test]
    fn config_roundtrips_through_json() {
        let mut s = tiny();
        s.case = CaseSpec::TropicalCyclone {
            rmax: 0.25,
            vmax: 30.0,
        };
        s.fault = Some(FaultSpec {
            seed: 42,
            dispatch_rate: 0.05,
            dma_rate: 0.0,
            max_retries: 2,
        });
        s.target = TargetSpec::CpeTeams { cpes: 8 };
        s.refinement = Some(RefinementSpec {
            lat_min_deg: 10.0,
            lat_max_deg: 45.0,
            lon_min_deg: -30.0,
            lon_max_deg: 40.0,
            weight: 4.0,
            parts: 8,
            refine_passes: 2,
        });
        let text = pin_file_json(&s.to_json(), None);
        let (back, golden) = parse_scenario_file(&text).unwrap();
        assert_eq!(back, s);
        assert!(golden.is_none());
        // Twice through: serialization is a fixed point.
        assert_eq!(pin_file_json(&back.to_json(), None), text);
    }

    #[test]
    fn unknown_fields_are_named_errors_not_panics() {
        let text = pin_file_json(&tiny().to_json(), None);
        let with_typo = text.replace("\"phy_steps\"", "\"phy_stepz\"");
        match parse_scenario_file(&with_typo) {
            Err(ScenarioError::UnknownField { field, .. }) => {
                assert_eq!(field, "config.phy_stepz")
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
        match parse_scenario_file(&text.replace("\"nlev\"", "\"nlevels\"")) {
            Err(ScenarioError::UnknownField { field, .. }) => {
                assert_eq!(field, "config.nlevels")
            }
            other => panic!("expected UnknownField, got {other:?}"),
        }
    }

    #[test]
    fn missing_and_malformed_fields_are_named() {
        match parse_scenario_file("{\"schema\": \"grist-scenario-v1\"}") {
            Err(ScenarioError::MissingField { field }) => assert_eq!(field, "document.config"),
            other => panic!("{other:?}"),
        }
        match parse_scenario_file("not json at all") {
            Err(ScenarioError::Parse(_)) => {}
            other => panic!("{other:?}"),
        }
        let mut s = tiny();
        s.name = String::new();
        let err = Scenario::from_json(&s.to_json(), "config").unwrap_err();
        match err {
            ScenarioError::BadValue { field, .. } => assert_eq!(field, "config.name"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cross_field_validation_catches_unrunnable_combos() {
        let mut s = tiny();
        s.case = CaseSpec::WilliamsonTc5 {
            steps: 2,
            dt: 300.0,
            ranks: 2,
        };
        s.precision = PrecisionMode::Mixed;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Unsupported { .. })
        ));
        let mut s = tiny();
        s.dyn_mode = DynStepMode::Overlapped;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Unsupported { .. })
        ));
        let mut s = tiny();
        s.fault = Some(FaultSpec {
            seed: 1,
            dispatch_rate: 0.5,
            dma_rate: 0.0,
            max_retries: 1,
        });
        // Dispatch faults on a serial target cannot retry/degrade.
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::Unsupported { .. })
        ));
    }

    #[test]
    fn runner_is_bitwise_stable_across_runs() {
        let s = tiny();
        let a = ScenarioRunner::new().run(&s).unwrap();
        let b = ScenarioRunner::new().run(&s).unwrap();
        assert_eq!(a.artifact, b.artifact);
        assert!(a.artifact.diff(&b.artifact).is_empty());
    }

    #[test]
    fn artifact_roundtrips_and_diffs_name_the_drift() {
        let s = tiny();
        let run = ScenarioRunner::new().run(&s).unwrap();
        let text = pin_file_json(&s.to_json(), Some(&run.artifact));
        let (_, golden) = parse_scenario_file(&text).unwrap();
        let golden = golden.unwrap();
        assert_eq!(golden, run.artifact);
        // Perturb the pinned state hash: the diff must say which hash moved.
        let mut perturbed = golden.clone();
        perturbed.hashes[0].1 = "0000000000000000".into();
        let drift = perturbed.diff(&run.artifact);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("hash state"), "{}", drift[0]);
    }

    #[test]
    fn a_key_on_one_side_only_is_one_line_naming_that_key() {
        let pin = ScenarioArtifact {
            name: "t".into(),
            hashes: vec![
                ("state".into(), "00000000000000aa".into()),
                ("gone".into(), "00000000000000bb".into()),
            ],
            diagnostics: vec![("ps_mean".into(), 1.0), ("gone".into(), 2.0)],
            counters: vec![("halo.messages".into(), 10), ("gone".into(), 16)],
        };
        let mut got = pin.clone();
        got.hashes[1] = ("new".into(), "00000000000000cc".into());
        got.diagnostics[1] = ("new".into(), 3.0);
        got.counters[1] = ("new".into(), 3);
        assert_eq!(
            pin.diff(&got),
            [
                "hash gone: pinned 00000000000000bb, missing",
                "hash new: not in pin (got 00000000000000cc) — re-pin with --update",
                "diagnostic gone: pinned 2.0 (4000000000000000), missing",
                "diagnostic new: not in pin (got 3.0 (4008000000000000)) — re-pin with --update",
                "counter gone: pinned 16, missing",
                "counter new: not in pin (got 3) — re-pin with --update",
            ]
        );
        // Same keys in another order is the same pin.
        got = pin.clone();
        got.counters.reverse();
        assert!(pin.diff(&got).is_empty());
        // One ulp in a diagnostic is drift, by bit pattern.
        got.diagnostics[0].1 = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(
            pin.diff(&got),
            ["diagnostic ps_mean: pinned 1.0 (3ff0000000000000), \
              got 1.0000000000000002 (3ff0000000000001)"]
        );
    }
}
