"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro generate --dataset BK --scale small --out bk.json
    repro stats bk.json                      # also accepts index files
    repro mine bk.json --alpha 0.2 --method tcfi
    repro index bk.json --out bk.tcsnap --format snapshot
    repro edge-index coauth.json --out coauth.tcsnap --workers 4
    repro snapshot bk.tctree.json --out bk.tcsnap
    repro query bk.tcsnap --alpha 0.2 [--pattern 3,7] [--top-k 5]
    repro query coauth.tcsnap --kind edge --alpha 0.2
    repro serve bk.tcsnap --port 8080
    repro search bk.json --vertex 12 --alpha 0.2 [--top 5]
    repro search bk.tcsnap --vertices 2,3 --attributes 0,1 [--alpha 0.2]
    repro export bk.json --format graphml --out bk.graphml [--alpha 0.2]
    repro experiment table2 --scale tiny
    repro bench run benchmarks/fleet.yaml --profile smoke [--dry-run]
    repro bench summarize [--records-dir ...] [--out-dir .]
    repro bench trend --baselines-dir . [--threshold 1.25]
    repro bench tune-cutovers [--apply]
    repro lint [--format json] [--rule lock-discipline] [--no-baseline]
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.bench import experiments
from repro.bench.reporting import format_table
from repro.core.finder import ThemeCommunityFinder
from repro.index.warehouse import ThemeCommunityWarehouse
from repro.network.io import load_network, save_network
from repro.network.stats import network_statistics


def _cmd_generate(args: argparse.Namespace) -> int:
    maker = experiments.DATASET_MAKERS.get(args.dataset.upper())
    if maker is None:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{sorted(experiments.DATASET_MAKERS)}",
            file=sys.stderr,
        )
        return 2
    network = maker(args.scale)
    save_network(network, args.out)
    stats = network_statistics(network, count_triangles_too=False)
    print(f"wrote {args.out}: {stats.as_row()}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine import registry
    from repro.index.stats import tc_tree_statistics
    from repro.serve.snapshot import TCTreeSnapshot, is_snapshot_file

    if is_snapshot_file(args.network) or _is_index_document(args.network):
        # An index file (binary snapshot or JSON warehouse document):
        # report the tree profile instead of network statistics, titled
        # by the registered model's display name.
        if is_snapshot_file(args.network):
            with TCTreeSnapshot.open(args.network) as snapshot:
                tree = snapshot.materialize_tree()
        else:
            tree = ThemeCommunityWarehouse.load(args.network).tree
        stats = tc_tree_statistics(tree)
        prefix = registry.model_for_tree(tree).display
        print(
            format_table(
                [stats.as_row()],
                title=f"{prefix} statistics of {args.network}",
            )
        )
        return 0
    network = load_network(args.network)
    stats = network_statistics(network)
    rows = [dict(stats.as_row(), **{"#Triangles": stats.num_triangles})]
    print(format_table(rows, title=f"statistics of {args.network}"))
    return 0


def _is_index_document(path: str) -> bool:
    """Cheap sniff: does the file open with a repro-tctree JSON header?"""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return '"repro-tctree"' in handle.read(256)
    except (OSError, UnicodeDecodeError):
        return False


def _cmd_mine(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    finder = ThemeCommunityFinder(network)
    communities = finder.find_communities(
        alpha=args.alpha,
        method=args.method,
        epsilon=args.epsilon,
        max_length=args.max_length,
    )
    print(
        f"found {len(communities)} theme communities "
        f"(alpha={args.alpha}, method={args.method})"
    )
    for community in communities[: args.top]:
        theme = ",".join(str(x) for x in community.theme_labels(network))
        members = ",".join(
            str(m) for m in community.member_labels(network)[:10]
        )
        suffix = "..." if community.size > 10 else ""
        print(f"  theme=[{theme}] size={community.size}: {members}{suffix}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.obs.trace import Tracer, tracing

    network = load_network(args.network)
    # Tracing wraps the build AND the save so the snapshot.write span
    # lands in the same tree as the build phases.
    tracer = Tracer() if args.trace else None
    with tracing(tracer) if tracer else nullcontext():
        warehouse = ThemeCommunityWarehouse.build(
            network,
            max_length=args.max_length,
            workers=args.workers,
            backend=args.backend,
        )
        if args.format == "snapshot":
            warehouse.save_snapshot(args.out)
        else:
            warehouse.save(args.out)
    if tracer is not None:
        tracer.write(args.trace, fmt="chrome")
        print(f"wrote build trace to {args.trace} (chrome://tracing)")
    low, high = warehouse.alpha_range()
    print(
        f"wrote {args.out} ({args.format}): "
        f"{warehouse.num_indexed_trusses} trusses, "
        f"non-trivial alpha range [{low}, {high:.4g})"
    )
    return 0


def _cmd_edge_index(args: argparse.Namespace) -> int:
    from repro.edgenet.index import build_edge_tc_tree
    from repro.edgenet.io import load_edge_network
    from repro.obs.trace import Tracer, tracing
    from repro.serve.snapshot import write_snapshot

    network = load_edge_network(args.network)
    tracer = Tracer() if args.trace else None
    with tracing(tracer) if tracer else nullcontext():
        tree = build_edge_tc_tree(
            network,
            max_length=args.max_length,
            workers=args.workers,
            backend=args.backend,
        )
        size = write_snapshot(tree, args.out)
    if tracer is not None:
        tracer.write(args.trace, fmt="chrome")
        print(f"wrote build trace to {args.trace} (chrome://tracing)")
    low = 0.0
    print(
        f"wrote {args.out} (edge snapshot): {tree.num_nodes} trusses, "
        f"{size} bytes, non-trivial alpha range "
        f"[{low}, {tree.max_alpha():.4g})"
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serve.snapshot import migrate_json_to_snapshot

    json_bytes, snapshot_bytes = migrate_json_to_snapshot(
        args.index, args.out
    )
    print(
        f"wrote {args.out}: {snapshot_bytes} bytes "
        f"(JSON was {json_bytes} bytes, "
        f"x{json_bytes / max(1, snapshot_bytes):.2f})"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.engine import IndexedWarehouse

    pattern = None
    if args.pattern:
        pattern = tuple(int(x) for x in args.pattern.split(","))
    # The engine answers both index formats (binary snapshots lazily,
    # JSON documents from memory) bit-identically to the in-memory tree.
    with IndexedWarehouse.open(args.index) as engine:
        if args.kind != "auto" and engine.kind != args.kind:
            print(
                f"{args.index} serves a {engine.kind} tree, "
                f"not {args.kind}",
                file=sys.stderr,
            )
            return 2
        if args.top_k is not None:
            communities = engine.top_k(
                args.top_k, pattern=pattern, alpha=args.alpha,
                min_size=args.min_size,
            )
            print(
                f"top {len(communities)} theme communities "
                f"(alpha={args.alpha})"
            )
            for community in communities:
                members = ",".join(
                    str(m) for m in sorted(community.members)[:10]
                )
                suffix = "..." if community.size > 10 else ""
                print(
                    f"  pattern={community.pattern} "
                    f"size={community.size}: {members}{suffix}"
                )
            return 0
        answer = engine.query(pattern=pattern, alpha=args.alpha)
    print(
        f"retrieved {answer.retrieved_nodes} trusses "
        f"(visited {answer.visited_nodes} nodes)"
    )
    for truss in answer.trusses[: args.top]:
        print(
            f"  pattern={truss.pattern} |V|={truss.num_vertices} "
            f"|E|={truss.num_edges} communities={len(truss.communities())}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.engine import IndexedWarehouse
    from repro.serve.live import LiveIndex
    from repro.serve.server import create_server

    engine = IndexedWarehouse.open(args.index, cache_size=args.cache_size)
    live = None
    if args.live or args.watch:
        live = LiveIndex(
            engine,
            directory=args.watch,
            compact_threshold=args.compact_every,
        )
        if args.watch:
            live.watch()
    server = create_server(
        engine, host=args.host, port=args.port, verbose=args.verbose,
        live=live,
    )
    host, port = server.server_address[:2]
    endpoints = "/query /top-k /search /stats /healthz /metrics"
    if live is not None:
        endpoints += " /admin/apply-delta"
    print(
        f"serving {args.index} ({engine.backend}, "
        f"{engine.num_indexed_trusses} trusses) "
        f"on http://{host}:{port} — endpoints: " + endpoints,
        flush=True,
    )
    if args.watch:
        print(f"watching {args.watch} for *.tcdelta overlays", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if live is not None:
            live.stop()
        server.server_close()
        engine.close()
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    from repro.serve.engine import IndexedWarehouse
    from repro.serve.snapshot import write_delta_snapshot

    with IndexedWarehouse.open(args.base) as base_engine:
        base_tree = base_engine.materialize_tree()
    with IndexedWarehouse.open(args.updated) as updated_engine:
        updated_tree = updated_engine.materialize_tree()
    size = write_delta_snapshot(
        base_tree,
        updated_tree,
        args.out,
        generation=args.generation,
        base_generation=args.base_generation,
    )
    print(
        f"wrote {args.out}: {size} bytes "
        f"(generation {args.base_generation} -> {args.generation})"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.network.validate import has_errors, validate_network

    network = load_network(args.network)
    issues = validate_network(network)
    if not issues:
        print("ok: no issues found")
        return 0
    for issue in issues:
        print(str(issue))
    return 1 if has_errors(issues) else 0


def _find_lint_root(start: str | None) -> Path:
    """Project root for ``repro lint``: the dir holding ``src/repro``."""
    if start is not None:
        return Path(start).resolve()
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    # Installed layout: src/repro/cli.py -> repo root two levels up.
    return Path(__file__).resolve().parents[2]


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis import DEFAULT_BASELINE, run_lint, save_baseline
    from repro.errors import AnalysisError

    root = _find_lint_root(args.root)
    baseline: Path | None = None
    if not args.no_baseline and not args.write_baseline:
        candidate = (
            Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
        )
        if not candidate.is_absolute():
            candidate = root / candidate
        if candidate.is_file():
            baseline = candidate
        elif args.baseline:
            print(f"error: baseline {candidate} not found", file=sys.stderr)
            return 2

    try:
        if args.write_baseline:
            report = run_lint(
                root, paths=args.paths or None, rules=args.rule or None
            )
            target = (
                Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
            )
            if not target.is_absolute():
                target = root / target
            save_baseline(report.findings, target)
            print(f"wrote {target}: {len(report.findings)} baselined findings")
            return 0
        report = run_lint(
            root,
            paths=args.paths or None,
            rules=args.rule or None,
            baseline=baseline,
        )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        suffix = []
        if report.baselined:
            suffix.append(f"{len(report.baselined)} baselined")
        if report.unused_baseline:
            suffix.append(
                f"{len(report.unused_baseline)} stale baseline entries"
            )
        tail = f" ({', '.join(suffix)})" if suffix else ""
        if report.ok:
            print(f"ok: {report.files} files clean{tail}")
        else:
            print(f"{len(report.findings)} findings{tail}")
    return 0 if report.ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.core.tcfi import tcfi
    from repro.search.topk import top_k_communities
    from repro.search.vertex import communities_containing_vertex
    from repro.serve.snapshot import is_snapshot_file

    if is_snapshot_file(args.network) or _is_index_document(args.network):
        return _cmd_search_index(args)
    network = load_network(args.network)
    result = tcfi(network, args.alpha, max_length=args.max_length)
    if args.vertex is not None:
        communities = communities_containing_vertex(result, args.vertex)
        print(
            f"vertex {args.vertex} belongs to {len(communities)} "
            f"theme communities (alpha={args.alpha})"
        )
    else:
        communities = top_k_communities(result, args.top)
        print(f"top {len(communities)} theme communities (alpha={args.alpha})")
    for community in communities[: args.top]:
        theme = ",".join(str(x) for x in community.theme_labels(network))
        print(f"  theme=[{theme}] size={community.size}")
    return 0


def _cmd_search_index(args: argparse.Namespace) -> int:
    """Attributed community search against a built index (engine path)."""
    from repro.serve.engine import IndexedWarehouse

    if not args.vertices or not args.attributes:
        print(
            f"{args.network} is an index file: attributed search needs "
            "--vertices and --attributes (comma-separated ids)",
            file=sys.stderr,
        )
        return 2
    vertices = tuple(int(x) for x in args.vertices.split(","))
    attributes = tuple(int(x) for x in args.attributes.split(","))
    with IndexedWarehouse.open(args.network) as engine:
        matches = engine.search(
            vertices, attributes, alpha=args.alpha, limit=args.top
        )
        print(
            f"{len(matches)} attributed matches "
            f"(vertices={list(vertices)}, attributes={list(attributes)}, "
            f"alpha={args.alpha})"
        )
        for match in matches:
            members = ",".join(
                str(m) for m in sorted(match.community.members)[:10]
            )
            suffix = "..." if match.community.size > 10 else ""
            print(
                f"  pattern={match.pattern} coverage={match.coverage} "
                f"strength={match.strength:.4g} "
                f"size={match.community.size}: {members}{suffix}"
            )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.finder import ThemeCommunityFinder
    from repro.export.dot import network_to_dot
    from repro.export.graphml import write_graphml

    network = load_network(args.network)
    communities = None
    if args.alpha is not None:
        communities = ThemeCommunityFinder(network).find_communities(
            alpha=args.alpha, max_length=args.max_length
        )
    if args.format == "graphml":
        write_graphml(network, args.out, communities)
    else:
        highlight = set()
        for community in communities or []:
            highlight |= community.members
        text = network_to_dot(network, highlight=highlight)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"wrote {args.out} ({args.format})")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import fleet

    config = fleet.load_fleet_config(args.config)
    only = args.only.split(",") if args.only else None
    records = fleet.run_fleet(
        config,
        profile=args.profile,
        only=only,
        force=args.force,
        dry_run=args.dry_run,
        workers=args.workers,
        records_dir=args.records_dir,
        update_config=not args.no_update_config,
    )
    if not args.dry_run:
        print(f"{len(records)} experiment(s) recorded")
    return 0


def _cmd_bench_summarize(args: argparse.Namespace) -> int:
    from repro.bench import fleet

    records = fleet.load_records(args.records_dir)
    if not records:
        print(f"no records in {args.records_dir}", file=sys.stderr)
        return 2
    written = fleet.summarize_records(records, args.out_dir)
    for area, path in sorted(written.items()):
        print(f"{area}: {path}")
    return 0


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    from repro.bench import fleet

    records = fleet.load_records(args.records_dir)
    if not records:
        print(f"no records in {args.records_dir}", file=sys.stderr)
        return 2
    rows, failed = fleet.compare_to_baseline(
        records,
        args.baselines_dir,
        threshold=args.threshold,
        window=args.window,
    )
    markdown = fleet.format_trend_markdown(rows, args.threshold, args.window)
    print(markdown)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(markdown + "\n")
    if failed:
        print(
            f"bench trend gate FAILED (>{(args.threshold - 1) * 100:.0f}% "
            f"regression vs best of last {args.window})",
            file=sys.stderr,
        )
        return 1
    print("bench trend gate passed")
    return 0


def _cmd_bench_tune(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench import fleet, tuning

    reports = tuning.tune_cutovers(profile=args.profile)
    lines = [format_table(
        [report.as_row() for report in reports],
        title="Engine cutovers: fitted crossover vs current constant",
    )]
    for report in reports:
        lines.append("")
        lines.append(f"{report.name} sweep ({report.unit}; source: {report.source})")
        lines.append(format_table(report.fit.as_rows()))
        for note in report.notes:
            lines.append(f"  note: {note}")
    text = "\n".join(lines)
    print(text)
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            fleet.stamp_line() + "\n" + text + "\n", encoding="utf-8"
        )
        print(f"report written to {path}")
    if args.apply:
        changed = tuning.apply_fitted_cutovers(reports, Path.cwd())
        for change in changed:
            print(f"applied: {change}")
        if not changed:
            print("no cutover disagreed by more than "
                  f"{tuning.DISAGREEMENT_LIMIT}x; nothing applied")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "all":
        for name in sorted(experiments.ALL_EXPERIMENTS):
            print(f"=== {name} ===")
            print(experiments.ALL_EXPERIMENTS[name](args.scale))
            print()
        return 0
    driver = experiments.ALL_EXPERIMENTS.get(args.name)
    if driver is None:
        print(
            f"unknown experiment {args.name!r}; choose from "
            f"{sorted(experiments.ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    print(driver(args.scale))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Lazy name listing: tree_model_names() reads the registration table
    # without resolving any model factory, so parser construction stays
    # import-light.
    from repro.engine.registry import tree_model_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Theme communities in database networks (Chu et al.)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an evaluation dataset")
    p.add_argument("--dataset", default="BK")
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="print network statistics (Table 2)")
    p.add_argument("network")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("mine", help="find theme communities")
    p.add_argument("network")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--method", default="tcfi",
                   choices=("tcfi", "tcfa", "tcs"))
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("index", help="build and save a TC-Tree")
    p.add_argument("network")
    p.add_argument("--out", required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel build workers (>1 enables the backend)")
    p.add_argument("--backend", default="process",
                   choices=("process", "serial"),
                   help="build backend; 'process' fans out when "
                        "--workers > 1, 'serial' never does")
    p.add_argument("--format", default="json",
                   choices=("json", "snapshot"),
                   help="persistence format: json interchange document "
                        "or binary serving snapshot")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON of the build's "
                        "span tree (open with chrome://tracing)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser(
        "edge-index",
        help="build and save an edge TC-Tree (binary snapshot)",
    )
    p.add_argument("network", help="a repro-edgenetwork JSON document")
    p.add_argument("--out", required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel build workers (>1 enables the backend)")
    p.add_argument("--backend", default="process",
                   choices=("process", "serial", "legacy"),
                   help="build backend; 'legacy' is the dict-of-sets "
                        "parity oracle")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON of the build's "
                        "span tree (open with chrome://tracing)")
    p.set_defaults(func=_cmd_edge_index)

    p = sub.add_parser(
        "snapshot", help="migrate a JSON index to a binary snapshot"
    )
    p.add_argument("index", help="a repro-tctree JSON document")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("query", help="query a saved TC-Tree")
    p.add_argument("index",
                   help="binary snapshot or JSON warehouse document")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--pattern", default=None,
                   help="comma-separated item ids (default: all items)")
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--top-k", type=int, default=None,
                   help="rank and return only the K best-scoring theme "
                        "communities instead of dumping every truss")
    p.add_argument("--min-size", type=int, default=3,
                   help="smallest community size --top-k may return")
    p.add_argument("--kind", default="auto",
                   choices=("auto", *tree_model_names()),
                   help="require the index to serve this tree model "
                        "(auto-detected from the snapshot header)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "serve", help="serve a TC-Tree index over HTTP (threaded)"
    )
    p.add_argument("index",
                   help="binary snapshot or JSON warehouse document")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--cache-size", type=int, default=1024,
                   help="decoded-carrier LRU cache capacity, in nodes")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per request to stderr")
    p.add_argument("--live", action="store_true",
                   help="enable the /admin/apply-delta ingestion "
                        "endpoint (hot-swap on overlay deltas)")
    p.add_argument("--watch", default=None, metavar="DIR",
                   help="poll DIR for *.tcdelta overlays and apply "
                        "them in generation order (implies --live; "
                        "compacted snapshots are written there too)")
    p.add_argument("--compact-every", type=int, default=4,
                   help="full-snapshot compaction after this many "
                        "overlay publications (default 4)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "delta",
        help="diff two indexes into an overlay delta snapshot",
    )
    p.add_argument("base", help="the currently served index file")
    p.add_argument("updated", help="the maintained/rebuilt index file")
    p.add_argument("--out", required=True,
                   help="overlay path (conventionally *.tcdelta)")
    p.add_argument("--generation", type=int, required=True,
                   help="generation number the overlay publishes")
    p.add_argument("--base-generation", type=int, default=1,
                   help="generation the overlay applies on top of "
                        "(default 1, a freshly opened index)")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("validate", help="check a network for problems")
    p.add_argument("network")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "search",
        help="community search: by vertex / top-k on a network, "
             "attributed (ATC-style) on an index file",
    )
    p.add_argument("network",
                   help="a network document, or a built index (binary "
                        "snapshot / JSON warehouse) for attributed search")
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--vertices", default=None,
                   help="attributed search: comma-separated query "
                        "vertices every community must contain "
                        "(index files only)")
    p.add_argument("--attributes", default=None,
                   help="attributed search: comma-separated query "
                        "attributes the theme may use (index files only)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="export a network (GraphML / DOT)")
    p.add_argument("network")
    p.add_argument("--format", default="graphml",
                   choices=("graphml", "dot"))
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="also mine communities and attach memberships")
    p.add_argument("--max-length", type=int, default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser(
        "bench",
        help="benchmark fleet: run / summarize / trend / tune-cutovers",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "run", help="run the experiments whose run_id is empty"
    )
    b.add_argument("config", help="fleet YAML (e.g. benchmarks/fleet.yaml)")
    b.add_argument("--profile", default="full",
                   help="named workload profile from the config "
                        "(CI uses 'smoke')")
    b.add_argument("--only", default=None,
                   help="comma-separated experiment ids to consider")
    b.add_argument("--force", action="store_true",
                   help="re-run experiments even if their run_id is set")
    b.add_argument("--dry-run", action="store_true",
                   help="list what would run, run nothing")
    b.add_argument("--workers", type=int, default=None,
                   help="parallel experiment processes (default: cores)")
    b.add_argument("--records-dir", default=None,
                   help="where record JSONs go "
                        "(default: <repo>/benchmarks/records)")
    b.add_argument("--no-update-config", action="store_true",
                   help="do not write fresh run_ids back into the YAML")
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser(
        "summarize",
        help="fold records into the BENCH_<area>.json trajectories",
    )
    b.add_argument("--records-dir", default="benchmarks/records")
    b.add_argument("--out-dir", default=".",
                   help="trajectory directory (default: repo root)")
    b.set_defaults(func=_cmd_bench_summarize)

    b = bench_sub.add_parser(
        "trend",
        help="gate fresh records against the committed trajectories",
    )
    b.add_argument("--records-dir", default="benchmarks/records")
    b.add_argument("--baselines-dir", default=".",
                   help="directory holding the BENCH_<area>.json baselines")
    b.add_argument("--threshold", type=float, default=1.25,
                   help="failure ratio vs baseline (1.25 = +25%%)")
    b.add_argument("--window", type=int, default=3,
                   help="baseline = best of the last N trajectory entries")
    b.add_argument("--summary", default=None,
                   help="also append the markdown table to this file "
                        "(CI passes $GITHUB_STEP_SUMMARY)")
    b.set_defaults(func=_cmd_bench_trend)

    b = bench_sub.add_parser(
        "tune-cutovers",
        help="sweep the engine cutover boundaries and fit the crossovers",
    )
    b.add_argument("--profile", default="smoke", choices=("smoke", "full"))
    b.add_argument("--report", default="benchmarks/reports/tune_cutovers.txt",
                   help="stamped report path ('' to skip)")
    b.add_argument("--apply", action="store_true",
                   help="rewrite integer cutover constants whose fit "
                        "disagrees by more than 2x")
    b.set_defaults(func=_cmd_bench_tune)

    p = sub.add_parser(
        "lint",
        help="run the project-invariant static analyzer (repro lint)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/dirs to lint (default: src/repro)")
    p.add_argument("--root", default=None,
                   help="project root (default: auto-detect src/repro)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--rule", action="append", default=[],
                   help="run only this rule (repeatable)")
    p.add_argument("--baseline", default=None,
                   help="baseline file (default: .repro-lint-baseline.json "
                        "at the root, when present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any committed baseline")
    p.add_argument("--write-baseline", action="store_true",
                   help="record current findings as the new baseline")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name")
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "medium"))
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
