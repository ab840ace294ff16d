//! Pinned inputs: byte length and FNV-1a digest of every generated input
//! at the default seed. A later change to `datagen` that alters what the
//! generators emit would silently change the load and so every number;
//! with the pins it stops the run instead.

/// The seed the pins were taken at (the default `--seed`).
pub const PINNED_SEED: u64 = 1;

/// `(workload, input, size, fnv1a)`: files by bytes, streams by items.
const PINS: &[(&str, &str, u64, u64)] = &[
    ("join_uniform", "lakes.wkt", 63047964, 0x27880b9e61aa759d),
    ("join_uniform", "roads.wkt", 16554815, 0xc92e89067f82c309),
    ("join_clustered", "lakes.wkt", 61611440, 0x7fdb17b9c8084fcb),
    ("join_clustered", "roads.wkt", 16220092, 0x31c0a8ab796b7150),
    ("snapshot_cycle", "lakes.wkt", 63047964, 0x27880b9e61aa759d),
    ("snapshot_cycle", "roads.wkt", 16554815, 0xc92e89067f82c309),
    ("serve_mixed", "roads.wkt", 4039210, 0x079baee03bd3f458),
    ("serve_mixed", "queries", 8192, 0x0b78a3d702a76490),
    ("update_rebalance", "roads.wkt", 8148928, 0x10f1ddd5a2a36d36),
    ("update_rebalance", "queries", 3073, 0x0554e4e578fdbc8d),
    ("update_rebalance", "inserts", 49152, 0x07d95539d42ed32e),
];

/// Checks `inputs` (`(name, size, fnv1a)`) of `workload` against the
/// pins. Seeds other than [`PINNED_SEED`] have no pins and pass.
pub fn check(workload: &str, seed: u64, inputs: &[(&'static str, u64, u64)]) -> Result<(), String> {
    if seed != PINNED_SEED {
        return Ok(());
    }
    for &(file, len, digest) in inputs {
        let pin = PINS
            .iter()
            .find(|p| p.0 == workload && p.1 == file)
            .ok_or_else(|| format!("input {file} has no pin"))?;
        if (pin.2, pin.3) != (len, digest) {
            return Err(format!(
                "input {file} changed: pinned size {} fnv1a {:#018x}, generated size {len} fnv1a \
                 {digest:#018x}: the generators no longer emit the load this benchmark was defined on",
                pin.2, pin.3
            ));
        }
    }
    Ok(())
}
