//! Fleet snapshots: one artifact holding several named device snapshots
//! plus an opaque fabric-state blob.
//!
//! A virtual vehicle is more than its ECUs — the CAN fabric between them
//! (arbitration state, in-flight frames, gateway queues, fault injectors)
//! is part of the deterministic state and must restore together with the
//! devices or a replay diverges at the first bus access. A
//! [`FleetSnapshot`] therefore bundles:
//!
//! * one [`SocSnapshot`] per member, keyed by the member's name (ECU id);
//! * a `fabric` JSON string the owning fabric serializes and restores
//!   itself — this crate treats it as opaque bytes with a content hash.
//!
//! The same save/load/verify discipline as [`SocSnapshot`] applies: every
//! part is FNV-hashed at capture, re-checked at load, and folded into one
//! [`FleetSnapshot::state_hash`] suitable for bit-identical replay proofs.

use crate::hash::{extend_fnv1a64, fnv1a64, FNV_OFFSET};
use crate::snapshot::{decode_versioned, SnapshotIoError, SocSnapshot};
use std::path::Path;

/// Fleet snapshot format version; bump on incompatible layout changes.
/// Version 2 follows the embedded [`SocSnapshot`]s to hex byte images.
pub const FLEET_SNAPSHOT_VERSION: u32 = 2;

/// A versioned snapshot of a set of named devices plus their connecting
/// fabric, captured at one fleet cycle.
#[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq, Eq)]
pub struct FleetSnapshot {
    version: u32,
    cycle: u64,
    members: Vec<(String, SocSnapshot)>,
    fabric_json: String,
    fabric_hash: u64,
}

impl FleetSnapshot {
    /// Assembles a fleet snapshot from per-member snapshots (in fleet
    /// order) and the fabric's serialized state. `cycle` is the fleet
    /// scheduler's own step counter, not any one device's cycle.
    pub fn new(cycle: u64, members: Vec<(String, SocSnapshot)>, fabric_json: String) -> Self {
        let fabric_hash = fnv1a64(fabric_json.as_bytes());
        FleetSnapshot {
            version: FLEET_SNAPSHOT_VERSION,
            cycle,
            members,
            fabric_json,
            fabric_hash,
        }
    }

    /// Format version of this snapshot.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The fleet-scheduler cycle at which the snapshot was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The member snapshots, in fleet order.
    pub fn members(&self) -> &[(String, SocSnapshot)] {
        &self.members
    }

    /// Looks up a member's snapshot by name.
    pub fn member(&self, name: &str) -> Option<&SocSnapshot> {
        self.members.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// The fabric's serialized state, exactly as captured.
    pub fn fabric_json(&self) -> &str {
        &self.fabric_json
    }

    /// One hash over the whole fleet: the capture cycle, then every
    /// member's name and [`SocSnapshot::state_hash`] in order, then the
    /// fabric blob's content hash. Two fleets with this hash equal are in
    /// bit-identical snapshot-visible state.
    pub fn state_hash(&self) -> u64 {
        let mut h = extend_fnv1a64(FNV_OFFSET, &self.cycle.to_le_bytes());
        for (name, snap) in &self.members {
            h = extend_fnv1a64(h, name.as_bytes());
            h = extend_fnv1a64(h, &snap.state_hash().to_le_bytes());
        }
        extend_fnv1a64(h, &self.fabric_hash.to_le_bytes())
    }

    /// Accounting size: the sum of member snapshot sizes plus the fabric
    /// blob — what a farm-style memory budget charges per resident vehicle.
    pub fn size_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|(n, s)| n.len() + s.size_bytes())
            .sum::<usize>()
            + self.fabric_json.len()
    }

    /// Checks every member snapshot's component hashes and the fabric
    /// blob's recorded hash.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Corrupt`] naming the first failing part (the
    /// fabric reports as component `fleet/fabric`).
    pub fn verify_integrity(&self) -> Result<(), SnapshotIoError> {
        for (_, snap) in &self.members {
            snap.verify_integrity()?;
        }
        let found = fnv1a64(self.fabric_json.as_bytes());
        if found != self.fabric_hash {
            return Err(SnapshotIoError::Corrupt {
                component: "fleet/fabric".to_string(),
                expected: self.fabric_hash,
                found,
            });
        }
        Ok(())
    }

    /// Writes the fleet snapshot as JSON to `path`, creating parents.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Json`] or [`SnapshotIoError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotIoError> {
        let json = serde_json::to_string(self).map_err(|source| SnapshotIoError::Json {
            path: path.to_path_buf(),
            source,
        })?;
        let io_err = |source| SnapshotIoError::Io {
            path: path.to_path_buf(),
            source,
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        std::fs::write(path, json).map_err(io_err)
    }

    /// Reads a fleet snapshot back, checking the format version and every
    /// recorded hash.
    ///
    /// # Errors
    ///
    /// [`SnapshotIoError::Io`] / [`SnapshotIoError::Json`] on unreadable
    /// or malformed files, [`SnapshotIoError::Version`] on an incompatible
    /// format, [`SnapshotIoError::Corrupt`] on hash mismatches.
    pub fn load(path: &Path) -> Result<FleetSnapshot, SnapshotIoError> {
        let json = std::fs::read_to_string(path).map_err(|source| SnapshotIoError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let snap: FleetSnapshot = decode_versioned(&json, FLEET_SNAPSHOT_VERSION, path)?;
        snap.verify_integrity()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_psi::device::{DeviceBuilder, DeviceVariant};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mcds-fleet-test-{}-{name}", std::process::id()))
    }

    fn two_member_fleet() -> FleetSnapshot {
        let dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let a = SocSnapshot::capture(&dev);
        let b = SocSnapshot::capture(&dev);
        FleetSnapshot::new(
            42,
            vec![("engine".to_string(), a), ("gearbox".to_string(), b)],
            r#"{"frames":7}"#.to_string(),
        )
    }

    #[test]
    fn save_load_round_trips_and_preserves_state_hash() {
        let fleet = two_member_fleet();
        let path = temp_path("roundtrip.json");
        fleet.save(&path).expect("save");
        let loaded = FleetSnapshot::load(&path).expect("load");
        assert_eq!(loaded, fleet);
        assert_eq!(loaded.state_hash(), fleet.state_hash());
        assert!(fleet.member("engine").is_some());
        assert!(fleet.member("brakes").is_none());
        assert!(fleet.size_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fabric_state_is_hashed_into_the_fleet_hash() {
        let a = two_member_fleet();
        let dev = DeviceBuilder::new(DeviceVariant::EdSideBooster)
            .cores(1)
            .build();
        let b = FleetSnapshot::new(
            42,
            vec![
                ("engine".to_string(), SocSnapshot::capture(&dev)),
                ("gearbox".to_string(), SocSnapshot::capture(&dev)),
            ],
            r#"{"frames":8}"#.to_string(),
        );
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn corrupted_fabric_blob_is_rejected_at_load() {
        let mut fleet = two_member_fleet();
        fleet.fabric_json.push(' ');
        let path = temp_path("corrupt.json");
        fleet.save(&path).expect("save");
        match FleetSnapshot::load(&path) {
            Err(SnapshotIoError::Corrupt { component, .. }) => {
                assert_eq!(component, "fleet/fabric");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
