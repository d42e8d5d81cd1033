//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- table7
//! cargo run --release --bin experiments -- loss
//! cargo run --release --bin experiments -- ablation
//! cargo run --release --bin experiments -- all --scale 0.05 --seed 7
//! ```
//!
//! Output goes to stdout.

use siren_core::analysis::{self, Labeler};
use siren_core::collector::PolicyMode;
use siren_core::net::SimConfig;
use siren_core::{report, Deployment, DeploymentConfig};

fn parse_args() -> (Vec<String>, f64, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut targets = Vec::new();
    let mut scale = 0.02f64;
    let mut seed = 0x51_4Eu64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(scale);
                i += 1;
            }
            "--seed" => {
                seed = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(seed);
                i += 1;
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    (targets, scale, seed)
}

fn main() {
    let (targets, scale, seed) = parse_args();
    let want = |t: &str| targets.iter().any(|x| x == t || x == "all");

    // Table 1 is the policy matrix itself — no deployment needed.
    if want("table1") {
        println!("{}", table1());
    }

    let needs_run = [
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "ablation",
        "summary",
        "telemetry",
        "security",
        "clusters",
        "recurrence",
    ]
    .iter()
    .any(|t| want(t));

    if needs_run {
        eprintln!("# running campaign: scale={scale} seed={seed} (paper scale = 1.0)");
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = scale;
        cfg.campaign.seed = seed;
        let result = Deployment::new(cfg).run();
        eprintln!(
            "# jobs={} processes={} datagrams={} db_rows={} records={}",
            result.campaign_stats.jobs,
            result.campaign_stats.processes,
            result.datagrams_sent,
            result.db_rows,
            result.records.len()
        );
        let records = &result.records;

        if want("telemetry") || want("summary") {
            println!("{}", report::telemetry_report(&result.metrics));
        }
        if want("telemetry") {
            // Query-side telemetry: serve the campaign's records from a
            // throwaway daemon and render the registry snapshot a
            // `Metrics` request fetches over the wire.
            println!("{}", query_telemetry(records));
        }
        if want("summary") {
            println!("Deployment summary");
            println!("  jobs:               {}", result.campaign_stats.jobs);
            println!("  processes:          {}", result.campaign_stats.processes);
            println!(
                "    system:           {}",
                result.campaign_stats.system_processes
            );
            println!(
                "    user:             {}",
                result.campaign_stats.user_processes
            );
            println!(
                "    python:           {}",
                result.campaign_stats.python_processes
            );
            println!(
                "  skipped MPI ranks:  {}",
                result.collector_stats.skipped_nonzero_rank
            );
            println!(
                "  exec() collisions:  {}",
                result.campaign_stats.exec_replacements
            );
            println!("  datagrams sent:     {}", result.datagrams_sent);
            println!("  consolidated:       {}", result.records.len());
            println!();
        }
        if want("table2") {
            println!("{}", report::usage_report(records));
        }
        if want("table3") {
            println!("{}", report::system_report(records));
        }
        if want("table4") {
            println!("{}", report::bash_variants_report(records));
        }
        if want("table5") {
            println!("{}", report::labels_report(records));
        }
        if want("table6") {
            println!("{}", report::compilers_report(records));
        }
        if want("table7") {
            println!("{}", report::similarity_report(records));
        }
        if want("table8") {
            println!("{}", report::interpreters_report(records));
        }
        if want("fig2") {
            println!("{}", report::derived_libs_report(records));
        }
        if want("fig3") {
            println!("{}", report::packages_report(records));
        }
        if want("fig4") {
            println!("{}", report::compiler_matrix_report(records));
        }
        if want("fig5") {
            println!("{}", report::library_matrix_report(records));
        }
        if want("ablation") {
            let abl = analysis::baseline::recognition_ablation(records, &Labeler::default(), 60);
            println!("{}", abl.render());
        }
        if want("security") {
            let report = analysis::audit_python_imports(
                records,
                siren_core::cluster::python::PACKAGE_CATALOG,
            );
            println!("{}", report.render());
        }
        if want("recurrence") {
            let rows = analysis::recurrence_table(records);
            println!("{}", analysis::recurrence::render_recurrence(&rows, 10));
        }
        if want("clusters") {
            let clustering = analysis::cluster_binaries(records, &Labeler::default(), 60);
            let quality = analysis::clustering_quality(&clustering);
            println!("{}", analysis::clusterize::render_clusters(&quality, 60));
        }
    }

    if want("loss") {
        println!("{}", loss_sweep(scale, seed));
    }
    if want("overhead") {
        println!("{}", overhead_comparison(scale, seed));
    }
}

/// Table 1: the collection-policy matrix (printed from the live policy
/// code so the table can never drift from the implementation).
fn table1() -> String {
    use siren_core::collector::{Category, CollectionPolicy};
    let columns = [
        (
            "System Executable",
            CollectionPolicy::for_category(Category::System, PolicyMode::Selective),
        ),
        (
            "User Executable",
            CollectionPolicy::for_category(Category::User, PolicyMode::Selective),
        ),
        (
            "Python Interpreter",
            CollectionPolicy::for_category(Category::Python, PolicyMode::Selective),
        ),
        ("Python Script", CollectionPolicy::for_python_script()),
    ];
    type PolicyColumn = (&'static str, fn(&CollectionPolicy) -> bool);
    let rows: [PolicyColumn; 8] = [
        ("File Metadata", |p| p.file_metadata),
        ("Libraries", |p| p.libraries),
        ("Modules", |p| p.modules),
        ("Compilers", |p| p.compilers),
        ("Memory Map", |p| p.memory_map),
        ("File_H", |p| p.file_hash),
        ("Strings_H", |p| p.strings_hash),
        ("Symbols_H", |p| p.symbols_hash),
    ];
    let mut out = String::from("Table 1: Data collection for different scopes\n");
    out.push_str(&format!("{:<14}", "Collected"));
    for (name, _) in &columns {
        out.push_str(&format!("  {name:<18}"));
    }
    out.push('\n');
    for (label, getter) in rows {
        out.push_str(&format!("{label:<14}"));
        for (_, policy) in &columns {
            out.push_str(&format!(
                "  {:<18}",
                if getter(policy) { "yes" } else { "-" }
            ));
        }
        out.push('\n');
    }
    out
}

/// §3.1 loss experiment: sweep injected UDP loss rates and report the
/// fraction of jobs with missing fields (the paper observed ~0.02 % at
/// LUMI's natural loss rate).
fn loss_sweep(scale: f64, seed: u64) -> String {
    let mut out = String::from(
        "UDP loss sweep: injected datagram loss vs jobs with missing fields\n\
         loss_rate  datagrams_lost  incomplete_msgs  procs_missing  jobs_missing  job_fraction\n",
    );
    for loss in [0.0, 0.0001, 0.001, 0.01, 0.05] {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = scale.min(0.01); // sweep runs 5 deployments
        cfg.campaign.seed = seed;
        cfg.channel = SimConfig::with_loss(loss, seed ^ 0xABCD);
        let r = Deployment::new(cfg).run();
        out.push_str(&format!(
            "{:>9.4}  {:>14}  {:>15}  {:>13}  {:>12}  {:>11.4}%\n",
            loss,
            r.datagrams_dropped,
            r.reassembly_incomplete,
            r.integrity.processes_with_missing,
            r.integrity.jobs_with_missing,
            100.0 * r.integrity.job_loss_fraction(),
        ));
    }
    out
}

/// Selective-collection ablation: Table 1 policy vs collect-everything.
fn overhead_comparison(scale: f64, seed: u64) -> String {
    let run = |mode: PolicyMode| {
        let mut cfg = DeploymentConfig::default();
        cfg.campaign.scale = scale.min(0.01);
        cfg.campaign.seed = seed;
        cfg.policy = mode;
        let start = std::time::Instant::now();
        let r = Deployment::new(cfg).run();
        (
            r.collector_stats.bytes_hashed,
            r.datagrams_sent,
            start.elapsed(),
        )
    };
    let (sel_bytes, sel_dgrams, sel_t) = run(PolicyMode::Selective);
    let (all_bytes, all_dgrams, all_t) = run(PolicyMode::CollectEverything);
    format!(
        "Selective collection ablation (Table 1 rationale)\n\
         mode                bytes_hashed  datagrams  wall_time\n\
         selective        {:>15}  {:>9}  {:>8.2?}\n\
         collect-all      {:>15}  {:>9}  {:>8.2?}\n\
         ratio            {:>14.1}x  {:>8.1}x\n",
        sel_bytes,
        sel_dgrams,
        sel_t,
        all_bytes,
        all_dgrams,
        all_t,
        all_bytes as f64 / sel_bytes.max(1) as f64,
        all_dgrams as f64 / sel_dgrams.max(1) as f64,
    )
}

/// Import `records` into a throwaway daemon serving the TCP query
/// protocol, drive one `Metrics` round-trip, and render the full
/// registry snapshot an operator would read off a live deployment —
/// commit/publish spans, query traffic, cursor table, slow queries.
fn query_telemetry(records: &[siren_core::consolidate::ProcessRecord]) -> String {
    use siren_core::proto::SirenClient;
    use siren_core::service::{ServiceConfig, SirenDaemon};

    let dir = std::env::temp_dir().join(format!("siren-exp-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        query_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..ServiceConfig::at(&dir)
    };
    let out = match SirenDaemon::open(cfg) {
        Ok((mut daemon, _)) => {
            let _ = daemon.import_epoch(records.to_vec());
            match daemon
                .query_addr()
                .ok_or(())
                .and_then(|addr| SirenClient::connect(addr).map_err(|_| ()))
                .and_then(|mut client| {
                    // Exercise one real query so the snapshot carries a
                    // nonzero exec span, then fetch the registry.
                    let _ = client.status();
                    client.metrics().map_err(|_| ())
                }) {
                Ok(snapshot) => report::telemetry_report(&snapshot),
                Err(()) => "Query telemetry unavailable (local TCP refused)\n".into(),
            }
        }
        Err(e) => format!("Query telemetry unavailable: {e}\n"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}
