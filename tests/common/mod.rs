//! Helpers shared by the push-engine integration tests: the small
//! platform and engine they build, and the seeded delta streams they
//! deliver.

use rsg::core::push::{EngineSweep, PushEngine};
use rsg::platform::{CostModel, Platform, ResourceGenSpec, TopologySpec};
pub use rsg_bench::deltas::{delta_stream, splitmix};

pub fn platform() -> Platform {
    let spec = ResourceGenSpec {
        clusters: 8,
        year: 2006,
        target_hosts: Some(240),
    };
    Platform::generate(spec, TopologySpec::default(), 11)
}

pub fn engine() -> PushEngine {
    EngineSweep::serving().engine(platform(), CostModel::default())
}
