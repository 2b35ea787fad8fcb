//! Integration tests for the storage-side substrate: MegIS FTL placement vs
//! the baseline page-level FTL, internal-DRAM budgeting, device-mode command
//! sequencing, and the accelerator area/power model.

use megis::accel::AcceleratorModel;
use megis::commands::{DeviceMode, HostStep, MegisCommand, MegisDevice};
use megis::ftl::MegisFtl;
use megis_ssd::config::SsdConfig;
use megis_ssd::dram::InternalDram;
use megis_ssd::ftl::{Lpa, PageLevelFtl};
use megis_ssd::ssd::Ssd;
use megis_ssd::timing::ByteSize;

#[test]
fn megis_ftl_frees_almost_all_internal_dram() {
    // With the regular page-level FTL, the L2P mapping for a 4 TB device
    // occupies ~4 GB (the whole internal DRAM). MegIS FTL's metadata for a
    // 4 TB database fits in a few megabytes, so nearly all DRAM capacity is
    // available for query batches and the intersection output.
    let config = SsdConfig::ssd_c();
    let mut dram = InternalDram::new(config.dram);

    let page_level = config.page_level_l2p_bytes();
    assert!(page_level.as_bytes() as f64 > 0.9 * dram.capacity().as_bytes() as f64);

    let mut ftl = MegisFtl::new(config.geometry);
    ftl.place_database("kmer-db", ByteSize::from_tb(4.0))
        .unwrap();
    dram.allocate(ftl.total_metadata_bytes()).unwrap();
    assert!(
        dram.available().as_bytes() as f64 > 0.99 * dram.capacity().as_bytes() as f64,
        "MegIS FTL metadata must leave the internal DRAM essentially free"
    );

    // The double-buffered query batches of Step 2 also fit trivially.
    dram.allocate(ByteSize::from_mib(2)).unwrap();
}

#[test]
fn database_placement_enables_full_channel_parallelism() {
    let config = SsdConfig::ssd_p();
    let mut ftl = MegisFtl::new(config.geometry);
    let placement = ftl
        .place_database("kmer-db", ByteSize::from_gb(701.0))
        .unwrap()
        .clone();
    assert!(placement.is_balanced());
    assert_eq!(placement.blocks_per_channel.len(), 16);

    // A sequential read round-robins across all 16 channels.
    let order = ftl.sequential_read_order("kmer-db");
    let first_round: std::collections::HashSet<u32> =
        order.iter().take(16).map(|b| b.channel).collect();
    assert_eq!(first_round.len(), 16);
}

#[test]
fn page_level_ftl_also_stripes_but_needs_page_granular_metadata() {
    let config = SsdConfig::ssd_c();
    let mut page_ftl = PageLevelFtl::new(config.geometry);
    for i in 0..4096 {
        page_ftl.write(Lpa(i)).unwrap();
    }
    let dist = page_ftl.pages_per_channel_distribution();
    assert!(
        dist.iter().all(|c| *c == dist[0]),
        "striping should be even"
    );

    // Metadata cost comparison for the same amount of stored data.
    let stored = ByteSize::from_bytes(4096 * config.geometry.page_size.as_bytes());
    let mut megis_ftl = MegisFtl::new(config.geometry);
    megis_ftl.place_database("db", stored).unwrap();
    assert!(megis_ftl.total_metadata_bytes() < page_ftl.metadata_bytes());
}

#[test]
fn ssd_object_store_and_isp_read_path() {
    let mut ssd = Ssd::new(SsdConfig::ssd_c());
    ssd.store_object("sketch-db", ByteSize::from_gb(14.0))
        .unwrap();
    // A tens-of-GB stand-in for the 701 GB k-mer database: the assertion
    // below is a bandwidth *ratio*, which the object size cancels out of,
    // and the store maps every page through the page-level FTL.
    ssd.store_object("kmer-db", ByteSize::from_gb(28.0))
        .unwrap();

    let internal = ssd.read_object_internal("kmer-db");
    let external = ssd.read_object_external("kmer-db");
    // The ISP path reads the same bytes ~17× faster on SSD-C.
    assert!(external.time / internal.time > 15.0);
    // Reading the KSS-scale sketch database inside the SSD takes ~1.5 s.
    let sketch = ssd.read_object_internal("sketch-db");
    assert!(sketch.time.as_secs() > 1.0 && sketch.time.as_secs() < 2.5);
}

#[test]
fn command_sequence_of_one_analysis_session() {
    let mut device = MegisDevice::new();
    device
        .handle(MegisCommand::Init {
            host_buffer: ByteSize::from_gb(64.0),
        })
        .unwrap();
    // Step 1a: k-mer extraction (spilled buckets may be written).
    device
        .handle(MegisCommand::Step(HostStep::KmerExtraction))
        .unwrap();
    device.handle(MegisCommand::Write { pages: 1024 }).unwrap();
    device
        .handle(MegisCommand::Step(HostStep::KmerExtraction))
        .unwrap();
    assert_eq!(device.mode(), DeviceMode::AcceleratingReadOnly);
    // Step 1b: per-bucket sorting boundaries toggle while ISP runs.
    for _ in 0..4 {
        device
            .handle(MegisCommand::Step(HostStep::Sorting))
            .unwrap();
        device
            .handle(MegisCommand::Step(HostStep::Sorting))
            .unwrap();
    }
    assert!(device.active_steps().is_empty());
    device.finish();
    assert_eq!(device.mode(), DeviceMode::Baseline);
}

#[test]
fn accelerator_overhead_is_small_for_both_ssds() {
    for (config, cores) in [(SsdConfig::ssd_c(), 3), (SsdConfig::ssd_p(), 4)] {
        let acc = AcceleratorModel::new(config.geometry.channels);
        assert!(acc.total_power_w() < 0.02, "ISP logic draws milliwatts");
        assert!(
            acc.area_overhead_vs_cores(cores) < 0.04,
            "area overhead must stay a few percent of the controller cores"
        );
    }
}
