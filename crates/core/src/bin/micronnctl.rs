//! `micronnctl` — command-line administration for MicroNN databases.
//!
//! ```text
//! micronnctl create  <db> --dim <D> [--metric l2|cosine|dot] [--codec f32|sq8|sq4]
//!                    [--attr name:type[:indexed][:fts]]...
//! micronnctl import  <db> <csv>            # rows: asset_id,v1,...,vD[,name=value...]
//! micronnctl search  <db> --query "v1,..,vD" [-k N] [--probes N] [--filter EXPR] [--exact]
//! micronnctl trace   <db> --query "v1,..,vD" [-k N] [--probes N] [--filter EXPR] [--exact]
//! micronnctl stats   <db> [--format table|json|prometheus]
//! micronnctl status  <db>                   # monitor verdict, leaf fill per tree, partition histogram
//! micronnctl maintain <db>                  # run the maintenance ladder to Healthy
//! micronnctl fsck    <db>                   # cross-check all tables, leaf fill per tree; exit 1 on corruption
//! micronnctl rebuild <db>
//! micronnctl flush   <db>
//! micronnctl analyze <db>
//! micronnctl backup  <db> <dest>
//! micronnctl checkpoint <db>
//! ```
//!
//! Every command that opens an existing database accepts
//! `--workers N` (plumbed to `Config::workers`) to size the scan
//! pool; `0`/omitted uses one worker per available core (capped at 8).
//!
//! Filter expressions are single comparisons: `col=value`, `col!=v`,
//! `col<v`, `col<=v`, `col>v`, `col>=v`, or `col~"full text query"`;
//! combine with ` AND ` / ` OR `.

use std::fmt;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use micronn::{
    AttributeDef, CollectingSink, Config, Expr, Metric, MetricSnapshot, MicroNN, SearchRequest,
    Value, ValueType, VectorCodec, VectorRecord,
};

/// The CLI's one path to stdout, written with `writeln!(Out, ...)?`.
/// Once the reader closes the pipe (`micronnctl fsck db | head -1`) the
/// rest of the output is dropped and the command finishes quietly, with
/// the exit status its work earned; any other write error fails the
/// command.
struct Out;

impl Out {
    fn write_fmt(&mut self, args: fmt::Arguments) -> Result<(), String> {
        match std::io::stdout().write_fmt(args) {
            Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
            r => r.map_err(|e| format!("writing to stdout: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("usage: micronnctl <create|import|search|trace|stats|status|maintain|fsck|rebuild|flush|analyze|backup|checkpoint> ...".into());
    };
    match cmd.as_str() {
        "create" => cmd_create(&args[1..]),
        "import" => cmd_import(&args[1..]),
        "search" => cmd_search(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "status" => cmd_status(&args[1..]),
        "maintain" => cmd_maintain(&args[1..]),
        "fsck" => cmd_fsck(&args[1..]),
        "rebuild" => cmd_simple(&args[1..], |db| {
            let r = db.rebuild().map_err(stringify)?;
            writeln!(
                Out,
                "rebuilt: {} vectors -> {} partitions ({} rows moved) in {:?}",
                r.vectors, r.partitions, r.moved_rows, r.total_time
            )?;
            Ok(())
        }),
        "flush" => cmd_simple(&args[1..], |db| {
            let r = db.flush_delta().map_err(stringify)?;
            writeln!(
                Out,
                "flushed {} delta vectors into {} partitions in {:?}",
                r.flushed, r.partitions_touched, r.total_time
            )?;
            Ok(())
        }),
        "analyze" => cmd_simple(&args[1..], |db| {
            db.analyze().map_err(stringify)?;
            writeln!(Out, "statistics refreshed")?;
            Ok(())
        }),
        "checkpoint" => cmd_simple(&args[1..], |db| {
            let done = db.checkpoint().map_err(stringify)?;
            writeln!(
                Out,
                "{}",
                if done {
                    "checkpoint complete"
                } else {
                    "checkpoint skipped (pinned readers or empty WAL)"
                }
            )?;
            Ok(())
        }),
        "backup" => {
            let (db_path, rest) = take_path(&args[1..])?;
            let dest = rest.first().ok_or("backup: missing destination path")?;
            let db = open(&db_path, rest)?;
            db.backup_to(dest).map_err(stringify)?;
            writeln!(Out, "backup written to {dest}")?;
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// `micronnctl status`: the monitor's verdict, the lifecycle
/// thresholds it applies, and a per-partition size histogram so an
/// operator can see split/merge pressure at a glance.
fn cmd_status(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    let s = db.stats().map_err(stringify)?;
    writeln!(
        Out,
        "status:              {:?}",
        db.maintenance_status().map_err(stringify)?
    )?;
    writeln!(Out, "partitions:          {}", s.partitions)?;
    writeln!(Out, "delta vectors:       {}", s.delta_vectors)?;
    writeln!(
        Out,
        "partition sizes:     min {} / avg {:.1} / max {}",
        s.min_partition_size, s.avg_partition_size, s.max_partition_size
    )?;
    // Maintenance counters from the telemetry registry. A freshly
    // opened handle starts at zero; nonzero counts mean maintenance ran
    // in *this* process (e.g. `micronnctl maintain`, or an embedded
    // maintainer) — the registry is per-handle, not persisted.
    let tel = db.telemetry();
    let maint: Vec<(&String, u64)> = tel
        .metrics
        .iter()
        .filter_map(|(name, m)| match m {
            MetricSnapshot::Counter(v)
                if name.starts_with("micronn_mainten")
                    || name.starts_with("micronn_maintainer") =>
            {
                Some((name, *v))
            }
            _ => None,
        })
        .collect();
    if !maint.is_empty() {
        writeln!(Out, "maintenance counters (this process):")?;
        for (name, v) in maint {
            writeln!(Out, "  {name:<44} {v}")?;
        }
    }
    print_tree_fill(&db.tree_fill().map_err(stringify)?)?;
    let sizes = db.partition_sizes().map_err(stringify)?;
    if sizes.is_empty() {
        writeln!(Out, "histogram:           (index not built)")?;
        return Ok(());
    }
    // Fixed-width histogram over eight size buckets.
    let max = sizes.iter().map(|&(_, s)| s).max().unwrap_or(0).max(1);
    let buckets = 8usize;
    let width = max.div_ceil(buckets as u64).max(1);
    let mut counts = vec![0usize; buckets];
    for &(_, s) in &sizes {
        counts[((s / width) as usize).min(buckets - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    writeln!(Out, "histogram (vectors per partition):")?;
    for (b, &c) in counts.iter().enumerate() {
        let lo = b as u64 * width;
        let bar = "#".repeat((c * 40).div_ceil(peak).min(40));
        // The last bucket also absorbs everything above its range.
        if b == buckets - 1 {
            writeln!(Out, "  {:>6}+{:<6} {c:>5}  {bar}", lo, "")?;
        } else {
            let hi = (b as u64 + 1) * width - 1;
            writeln!(Out, "  {lo:>6}-{hi:<6} {c:>5}  {bar}")?;
        }
    }
    Ok(())
}

/// `micronnctl maintain`: runs the full maintenance ladder (flush →
/// split/merge → rebuild fallback) and prints every action taken.
fn cmd_maintain(args: &[String]) -> Result<(), String> {
    use micronn::MaintenanceAction;
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    let report = db.maybe_maintain().map_err(stringify)?;
    if report.actions.is_empty() {
        writeln!(Out, "healthy; nothing to do")?;
    }
    for action in &report.actions {
        match action {
            MaintenanceAction::Flushed(f) => writeln!(
                Out,
                "flushed {} delta vectors into {} partitions in {:?}",
                f.flushed, f.partitions_touched, f.total_time
            )?,
            MaintenanceAction::Split(s) => writeln!(
                Out,
                "split partition {} -> +{:?} ({} rows moved) in {:?}",
                s.partition, s.new_partitions, s.rows_moved, s.total_time
            )?,
            MaintenanceAction::Merged(m) => writeln!(
                Out,
                "merged partition {} into {} ({} rows moved) in {:?}",
                m.partition, m.target, m.rows_moved, m.total_time
            )?,
            MaintenanceAction::Rebuilt(r) => writeln!(
                Out,
                "full rebuild: {} vectors -> {} partitions in {:?}",
                r.vectors, r.partitions, r.total_time
            )?,
            MaintenanceAction::Retrained(t) => writeln!(
                Out,
                "retrained quantizer ranges of partition {} ({} vectors re-encoded) in {:?}",
                t.partition, t.encoded, t.total_time
            )?,
        }
    }
    writeln!(
        Out,
        "final status: {:?} ({} actions in {:?})",
        report.status,
        report.actions.len(),
        report.total_time
    )?;
    Ok(())
}

/// `micronnctl fsck`: runs [`MicroNN::verify_integrity`] — the same
/// walker the crash-recovery harness asserts on — printing per-check
/// counts and every violation, and failing (non-zero exit) on any
/// corruption so scripts and operators share one code path.
fn cmd_fsck(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    let report = db.verify_integrity().map_err(stringify)?;
    writeln!(Out, "partitions walked:   {}", report.partitions_walked)?;
    writeln!(Out, "vectors checked:     {}", report.vectors_checked)?;
    writeln!(Out, "assets cross-checked:{:>5}", report.assets_checked)?;
    writeln!(Out, "codes checked:       {}", report.codes_checked)?;
    writeln!(Out, "orphans:             {}", report.orphans)?;
    writeln!(Out, "unreachable pages:   {}", report.unreachable_pages)?;
    print_tree_fill(&report.tree_fill)?;
    if report.is_clean() {
        writeln!(Out, "ok: no corruption found")?;
        Ok(())
    } else {
        for e in &report.errors {
            eprintln!("corrupt: {e}");
        }
        Err(format!(
            "fsck found {} violation(s) in {path}",
            report.errors.len()
        ))
    }
}

/// One `leaf fill` line per B+tree: used ÷ capacity bytes over its
/// leaves, its page counts, then its leaf pages per run of consecutive
/// page ids. A probed partition reads one page per leaf its rows span,
/// so a low `vectors` fill is pages read for air; a cold scan reads a
/// run of leaves per I/O, so few pages per run is a cold query making
/// one I/O per leaf.
fn print_tree_fill(trees: &[(String, micronn::Occupancy)]) -> Result<(), String> {
    for (tree, occ) in trees {
        writeln!(
            Out,
            "leaf fill {tree}: {:.3} ({} leaf, {} interior, {} overflow pages, {:.1} pages per run)",
            occ.leaf_fill(),
            occ.leaf_pages,
            occ.interior_pages,
            occ.overflow_pages,
            occ.pages_per_run()
        )?;
    }
    Ok(())
}

fn stringify(e: micronn::Error) -> String {
    e.to_string()
}

fn take_path(args: &[String]) -> Result<(String, &[String]), String> {
    let path = args.first().ok_or("missing database path")?.clone();
    Ok((path, &args[1..]))
}

/// Opens `path` with runtime knobs (currently `--workers`) parsed from
/// the remaining arguments.
fn open(path: &str, rest: &[String]) -> Result<MicroNN, String> {
    let mut config = Config::default();
    if let Some(w) = flag_value(rest, "--workers") {
        config.workers = w.parse().map_err(|_| "bad --workers")?;
    }
    MicroNN::open(path, config).map_err(stringify)
}

fn cmd_simple(
    args: &[String],
    f: impl FnOnce(&MicroNN) -> Result<(), String>,
) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    f(&open(&path, rest)?)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    match flag_value(rest, "--format").unwrap_or("table") {
        "table" => {}
        // Machine formats dump the telemetry registry: query/batch
        // latency histograms, scan and maintenance counters, and the
        // storage engine's live I/O counters (`micronn_store_*`).
        "json" => {
            writeln!(Out, "{}", db.telemetry().to_json())?;
            return Ok(());
        }
        "prometheus" => {
            write!(Out, "{}", db.telemetry().to_prometheus())?;
            return Ok(());
        }
        other => {
            return Err(format!(
                "stats: unknown --format {other} (table|json|prometheus)"
            ))
        }
    }
    let s = db.stats().map_err(stringify)?;
    writeln!(Out, "path:                {path}")?;
    writeln!(Out, "dimension:           {}", db.dim())?;
    writeln!(Out, "metric:              {}", db.metric())?;
    writeln!(Out, "codec:               {}", db.codec())?;
    writeln!(Out, "total vectors:       {}", s.total_vectors)?;
    writeln!(Out, "delta vectors:       {}", s.delta_vectors)?;
    writeln!(Out, "partitions:          {}", s.partitions)?;
    writeln!(Out, "avg partition size:  {:.1}", s.avg_partition_size)?;
    writeln!(Out, "baseline size:       {:.1}", s.baseline_partition_size)?;
    writeln!(Out, "index epoch:         {}", s.epoch)?;
    writeln!(Out, "pool resident:       {} KiB", s.resident_bytes / 1024)?;
    writeln!(
        Out,
        "maintenance status:  {:?}",
        db.maintenance_status().map_err(stringify)?
    )?;
    Ok(())
}

fn cmd_create(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let dim: usize = flag_value(rest, "--dim")
        .ok_or("create: --dim is required")?
        .parse()
        .map_err(|_| "create: --dim must be a number")?;
    let metric = match flag_value(rest, "--metric") {
        None => Metric::L2,
        Some(m) => Metric::parse(m).ok_or(format!("unknown metric {m}"))?,
    };
    let mut config = Config::new(dim, metric);
    if let Some(c) = flag_value(rest, "--codec") {
        config.codec = VectorCodec::parse(c).ok_or(format!("unknown codec {c}"))?;
    }
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--attr" {
            let spec = rest
                .get(i + 1)
                .ok_or("create: --attr needs name:type[:indexed][:fts]")?;
            config.attributes.push(parse_attr(spec)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    let codec = config.codec;
    MicroNN::create(&path, config).map_err(stringify)?;
    writeln!(Out, "created {path} ({dim}-d, {metric}, codec {codec})")?;
    Ok(())
}

fn parse_attr(spec: &str) -> Result<AttributeDef, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 2 {
        return Err(format!("bad attribute spec {spec}"));
    }
    let ty = match parts[1] {
        "int" | "integer" => ValueType::Integer,
        "real" | "float" => ValueType::Real,
        "text" | "string" => ValueType::Text,
        t => return Err(format!("unknown attribute type {t}")),
    };
    let mut def = AttributeDef::new(parts[0], ty);
    for p in &parts[2..] {
        match *p {
            "indexed" => def.indexed = true,
            "fts" => def.fts = true,
            other => return Err(format!("unknown attribute modifier {other}")),
        }
    }
    Ok(def)
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let csv = rest.first().ok_or("import: missing csv path")?;
    let db = open(&path, rest)?;
    let dim = db.dim();
    let content = std::fs::read_to_string(csv).map_err(|e| format!("read {csv}: {e}"))?;
    let mut batch = Vec::with_capacity(1024);
    let mut imported = 0usize;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 1 + dim {
            return Err(format!("line {}: expected id + {dim} floats", lineno + 1));
        }
        let asset_id: i64 = fields[0]
            .trim()
            .parse()
            .map_err(|_| format!("line {}: bad asset id {}", lineno + 1, fields[0]))?;
        let mut vector = Vec::with_capacity(dim);
        for f in &fields[1..=dim] {
            vector.push(
                f.trim()
                    .parse::<f32>()
                    .map_err(|_| format!("line {}: bad float {f}", lineno + 1))?,
            );
        }
        let mut rec = VectorRecord::new(asset_id, vector);
        // Optional trailing name=value attribute pairs.
        for extra in &fields[1 + dim..] {
            let (name, value) = extra
                .split_once('=')
                .ok_or(format!("line {}: bad attribute {extra}", lineno + 1))?;
            rec = rec.with_attr(name.trim(), parse_value(value.trim()));
        }
        batch.push(rec);
        if batch.len() == 1024 {
            db.upsert_batch(&batch).map_err(stringify)?;
            imported += batch.len();
            batch.clear();
        }
    }
    db.upsert_batch(&batch).map_err(stringify)?;
    imported += batch.len();
    writeln!(Out, "imported {imported} vectors into {path} (staged in the delta store; run `micronnctl rebuild` to index)")?;
    Ok(())
}

fn parse_value(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::Integer(i);
    }
    if let Ok(r) = s.parse::<f64>() {
        return Value::Real(r);
    }
    Value::text(s)
}

/// Query-shaped arguments shared by `search` and `trace`.
struct QueryArgs {
    query: Vec<f32>,
    k: usize,
    exact: bool,
    filter: Option<Expr>,
    req: SearchRequest,
}

fn parse_query_args(rest: &[String]) -> Result<QueryArgs, String> {
    let query_str = flag_value(rest, "--query").ok_or("--query is required")?;
    let query: Vec<f32> = query_str
        .split(',')
        .map(|t| t.trim().parse::<f32>())
        .collect::<Result<_, _>>()
        .map_err(|_| "--query must be comma-separated floats")?;
    let k: usize = flag_value(rest, "-k")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad -k")?;
    let exact = rest.iter().any(|a| a == "--exact");
    let mut req = SearchRequest::new(query.clone(), k);
    if let Some(p) = flag_value(rest, "--probes") {
        req = req.with_probes(p.parse().map_err(|_| "bad --probes")?);
    }
    let filter = match flag_value(rest, "--filter") {
        Some(f) => Some(parse_filter(f)?),
        None => None,
    };
    if let (false, Some(f)) = (exact, &filter) {
        req = req.with_filter(f.clone());
    }
    Ok(QueryArgs {
        query,
        k,
        exact,
        filter,
        req,
    })
}

fn run_query(db: &MicroNN, q: &QueryArgs) -> Result<micronn::SearchResponse, String> {
    if q.exact {
        db.exact(&q.query, q.k, q.filter.as_ref())
            .map_err(stringify)
    } else {
        db.search_with(&q.req).map_err(stringify)
    }
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    let q = parse_query_args(rest).map_err(|e| format!("search: {e}"))?;
    let t = std::time::Instant::now();
    let resp = run_query(&db, &q)?;
    let elapsed = t.elapsed();
    // The full execution counters, so codec and executor behaviour is
    // inspectable from the CLI (bytes scanned shrink under SQ8/SQ4; the
    // re-rank and filter counters expose the pipeline's extra passes).
    writeln!(
        Out,
        "plan={} partitions={} vectors_scanned={} bytes_scanned={} reranked={} \
         filtered_out={} candidates={} time={elapsed:?}",
        resp.info.plan,
        resp.info.partitions_scanned,
        resp.info.vectors_scanned,
        resp.info.bytes_scanned,
        resp.info.reranked,
        resp.info.filtered_out,
        resp.info.candidates
    )?;
    for r in &resp.results {
        writeln!(Out, "{:>20}  {:.6}", r.asset_id, r.distance)?;
    }
    Ok(())
}

/// `micronnctl trace`: runs one query with a collecting trace sink
/// installed and prints a flamegraph-style per-stage breakdown —
/// each stage's share of the whole query, plus the byte/fsync-carrying
/// spans (WAL group commits, checkpoints) the query triggered.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (path, rest) = take_path(args)?;
    let db = open(&path, rest)?;
    let q = parse_query_args(rest).map_err(|e| format!("trace: {e}"))?;
    let sink = std::sync::Arc::new(CollectingSink::new());
    db.set_trace_sink(Some(sink.clone()));
    let resp = run_query(&db, &q);
    db.set_trace_sink(None);
    let resp = resp?;
    let spans = sink.take();
    let total = spans
        .iter()
        .find(|s| s.name == "query")
        .map(|s| s.duration)
        .unwrap_or_else(|| spans.iter().map(|s| s.duration).sum());
    writeln!(
        Out,
        "plan={} k={} total={:?} ({} results)",
        resp.info.plan,
        q.k,
        total,
        resp.results.len()
    )?;
    let total_ns = total.as_nanos().max(1);
    for s in &spans {
        if s.name == "query" {
            continue;
        }
        let share = s.duration.as_nanos() as f64 / total_ns as f64;
        let bar = "#".repeat(((share * 40.0).round() as usize).min(40));
        let mut extras = String::new();
        if s.bytes > 0 {
            extras.push_str(&format!("  bytes={}", s.bytes));
        }
        if s.fsyncs > 0 {
            extras.push_str(&format!("  fsyncs={}", s.fsyncs));
        }
        writeln!(
            Out,
            "  {:<18} {:>12?} {:>6.1}%  {bar}{extras}",
            s.name,
            s.duration,
            share * 100.0
        )?;
    }
    writeln!(
        Out,
        "  counters: partitions={} vectors_scanned={} bytes_scanned={} reranked={} \
         filtered_out={} candidates={}",
        resp.info.partitions_scanned,
        resp.info.vectors_scanned,
        resp.info.bytes_scanned,
        resp.info.reranked,
        resp.info.filtered_out,
        resp.info.candidates
    )?;
    Ok(())
}

/// Parses `col=v`, `col!=v`, `col<(=)v`, `col>(=)v`, `col~"text"`,
/// combined with ` AND ` / ` OR ` (left-associative, AND binds first
/// within each OR arm because we split on OR first).
fn parse_filter(s: &str) -> Result<Expr, String> {
    let or_arms: Vec<&str> = s.split(" OR ").collect();
    let mut or_expr: Option<Expr> = None;
    for arm in or_arms {
        let mut and_expr: Option<Expr> = None;
        for leaf in arm.split(" AND ") {
            let e = parse_leaf(leaf.trim())?;
            and_expr = Some(match and_expr {
                None => e,
                Some(prev) => prev.and(e),
            });
        }
        let arm_expr = and_expr.ok_or("empty filter arm")?;
        or_expr = Some(match or_expr {
            None => arm_expr,
            Some(prev) => prev.or(arm_expr),
        });
    }
    or_expr.ok_or_else(|| "empty filter".into())
}

fn parse_leaf(leaf: &str) -> Result<Expr, String> {
    for (op_str, build) in [
        ("!=", Expr::ne as fn(String, Value) -> Expr),
        ("<=", Expr::le as fn(String, Value) -> Expr),
        (">=", Expr::ge as fn(String, Value) -> Expr),
        ("=", Expr::eq as fn(String, Value) -> Expr),
        ("<", Expr::lt as fn(String, Value) -> Expr),
        (">", Expr::gt as fn(String, Value) -> Expr),
    ] {
        if let Some((col, val)) = leaf.split_once(op_str) {
            // Ensure we didn't split `<=` at `<` etc.: the longer
            // operators are tried first, so a remaining exact match is
            // safe unless the value starts with '=' (e.g. "<=").
            if op_str.len() == 1 && val.starts_with('=') {
                continue;
            }
            return Ok(build(
                col.trim().to_string(),
                parse_value(val.trim().trim_matches('"')),
            ));
        }
    }
    if let Some((col, q)) = leaf.split_once('~') {
        return Ok(Expr::matches(col.trim(), q.trim().trim_matches('"')));
    }
    Err(format!("cannot parse filter leaf {leaf:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing() {
        assert_eq!(
            parse_filter("location=Seattle").unwrap(),
            Expr::eq("location", "Seattle")
        );
        assert_eq!(
            parse_filter("n<=5 AND tag~\"black cat\"").unwrap(),
            Expr::le("n", Value::Integer(5)).and(Expr::matches("tag", "black cat"))
        );
        assert_eq!(
            parse_filter("a=1 OR b!=x").unwrap(),
            Expr::eq("a", Value::Integer(1)).or(Expr::ne("b", "x"))
        );
        assert!(parse_filter("garbage").is_err());
    }

    #[test]
    fn value_parsing() {
        assert_eq!(parse_value("42"), Value::Integer(42));
        assert_eq!(parse_value("4.5"), Value::Real(4.5));
        assert_eq!(parse_value("hello"), Value::text("hello"));
    }

    #[test]
    fn attr_spec_parsing() {
        let a = parse_attr("location:text:indexed").unwrap();
        assert!(a.indexed && !a.fts);
        assert_eq!(a.ty, ValueType::Text);
        let a = parse_attr("caption:text:fts").unwrap();
        assert!(a.fts);
        assert!(parse_attr("bad").is_err());
        assert!(parse_attr("x:unknown").is_err());
    }
}
