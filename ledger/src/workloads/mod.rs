//! The five workloads. Each stresses a different set of layers, so
//! that for every optimisation one workload exercises its mechanism
//! and another bypasses it; `crate::metrics::WORKLOADS` records why
//! each was chosen.

pub mod acl_gate;
pub mod cold_sweep;
pub mod rollout_plan;
pub mod serve_churn;
pub mod whatif_k2;

use crate::harness::Workload;

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "cold_sweep" => Some(Box::<cold_sweep::ColdSweep>::default()),
        "serve_churn" => Some(Box::<serve_churn::ServeChurn>::default()),
        "whatif_k2" => Some(Box::<whatif_k2::WhatIfK2>::default()),
        "rollout_plan" => Some(Box::<rollout_plan::RolloutPlan>::default()),
        "acl_gate" => Some(Box::<acl_gate::AclGate>::default()),
        _ => None,
    }
}
