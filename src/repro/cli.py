"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   Build a synthetic telemetry dataset and save it to disk.
ingest     Append new months to a saved dataset, bumping its version.
convert    Re-encode a saved dataset (text <-> columnar), losslessly.
inspect    Print the head of rank lists from a saved dataset.
analyze    Run one pipeline task over a saved dataset and print it.
report     Run the full analysis DAG into a run directory.
serve      Serve a saved dataset over the JSON HTTP API.
trace      Summarize a JSONL span trace written by ``--trace``.
crux       Produce the CrUX-style public rank-bucket export.
world      Print facts about the synthetic world (countries, taxonomy).

Every ``_cmd_*`` handler is a thin wrapper over the stable
:mod:`repro.api` facade — the shell surface and the Python surface are
the same five verbs, and the CLI only adds argument parsing, printing
and exit codes.  ``analyze``/``report``/``serve`` share the task
registry in :mod:`repro.pipeline`, and ``serve`` exposes it at
``/v1/analyses`` over HTTP.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import Metric, Month, Platform


def _parse_month(text: str) -> Month:
    try:
        return Month.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_platform(text: str) -> Platform:
    try:
        return Platform(text)
    except ValueError as exc:
        choices = ", ".join(p.value for p in Platform)
        raise argparse.ArgumentTypeError(
            f"platform must be one of {choices}, got {text!r}"
        ) from exc


def _parse_metric(text: str) -> Metric:
    try:
        return Metric(text)
    except ValueError as exc:
        choices = ", ".join(m.value for m in Metric)
        raise argparse.ArgumentTypeError(
            f"metric must be one of {choices}, got {text!r}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A World Wide View of Browsing the "
                    "World Wide Web' (IMC 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and save a dataset")
    gen.add_argument("--out", "--data", dest="out", required=True,
                     help="output directory (--data is accepted too, "
                          "matching ingest/analyze/serve)")
    gen.add_argument("--small", action="store_true",
                     help="use the small test-scale universe")
    gen.add_argument("--seed", type=int, default=2022)
    gen.add_argument("--countries", nargs="*", default=None,
                     help="ISO codes (default: all 45)")
    gen.add_argument("--months", nargs="*", type=_parse_month, default=None,
                     help="e.g. 2021-12 2022-02 (default: 2022-02; "
                          "'all' months via --all-months)")
    gen.add_argument("--all-months", action="store_true",
                     help="generate all six study months")
    gen.add_argument("--platforms", nargs="*", type=_parse_platform,
                     default=None,
                     help="platforms to generate (default: windows android)")
    gen.add_argument("--metrics", nargs="*", type=_parse_metric, default=None,
                     help="metrics to generate "
                          "(default: page_loads time_on_page)")
    gen.add_argument("--format", default="text",
                     choices=("text", "columnar"),
                     help="storage codec for --out (default: text; "
                          "columnar loads memory-mapped in O(open))")
    gen.add_argument("--trace", default=None, metavar="PATH",
                     help="write a JSONL span trace of the run "
                          "(one span per engine slice)")

    conv = sub.add_parser(
        "convert",
        help="re-encode a saved dataset between storage codecs",
    )
    conv.add_argument("src", nargs="?", default=None,
                      help="source dataset directory (codec "
                           "auto-detected); --data works too")
    conv.add_argument("dst", nargs="?", default=None,
                      help="destination directory to write; --out works too")
    conv.add_argument("--data", dest="data", default=None,
                      help="source dataset directory (same flag as "
                           "ingest/analyze/serve)")
    conv.add_argument("--out", dest="out", default=None,
                      help="destination directory (same flag as generate)")
    conv.add_argument("--format", default="columnar",
                      choices=("text", "columnar"),
                      help="destination codec (default: columnar); "
                           "round-trips are byte-identical and keep "
                           "the dataset fingerprint")

    ing = sub.add_parser(
        "ingest",
        help="append new months to a saved dataset, in place",
    )
    ing.add_argument("--data", required=True,
                     help="saved dataset directory to grow")
    ing.add_argument("--months", "--month", dest="months", nargs="+",
                     type=_parse_month, required=True,
                     help="months to append, e.g. 2022-03 (already-present "
                          "months are skipped; a fully-present set is a "
                          "byte-identical no-op)")
    ing.add_argument("--format", default=None,
                     choices=("text", "columnar"),
                     help="storage codec (default: auto-detected)")
    ing.add_argument("--small", action="store_true",
                     help="dataset was generated with --small")
    ing.add_argument("--seed", type=int, default=None,
                     help="generator seed (default: the dataset's own)")
    ing.add_argument("--trace", default=None, metavar="PATH",
                     help="write a JSONL span trace of the run "
                          "(one span per engine slice)")

    ins = sub.add_parser("inspect", help="print rank-list heads")
    ins.add_argument("--data", required=True)
    ins.add_argument("--country", default="US")
    ins.add_argument("--top", type=int, default=10)

    from .pipeline import default_registry

    ana = sub.add_parser("analyze", help="run an analysis on a saved dataset")
    ana.add_argument("--data", required=True)
    ana.add_argument(
        "--analysis", required=True,
        choices=sorted(default_registry().names()),
    )
    ana.add_argument("--small", action="store_true",
                     help="dataset was generated with --small (labels)")
    ana.add_argument("--seed", type=int, default=None,
                     help="generator seed (default: the dataset's own)")
    ana.add_argument("--as-of", type=int, default=None, metavar="VERSION",
                     help="analyse this archived dataset version "
                          "(default: latest)")

    rep = sub.add_parser(
        "report", help="run the full analysis DAG into a run directory"
    )
    rep.add_argument("--data", required=True, help="saved dataset directory")
    rep.add_argument("--out", required=True, help="run directory to write")
    rep.add_argument("--tasks", nargs="*", default=None,
                     help="task subset (dependencies are pulled in; "
                          "default: the whole registry)")
    rep.add_argument("--store", default=None,
                     help="artifact store directory "
                          "(default: <data>/.artifacts)")
    rep.add_argument("--no-store", action="store_true",
                     help="recompute everything; do not read or write "
                          "the artifact store")
    rep.add_argument("--month", type=_parse_month, default=None,
                     help="reference month (default: the dataset's last)")
    rep.add_argument("--small", action="store_true",
                     help="dataset was generated with --small (labels)")
    rep.add_argument("--seed", type=int, default=None,
                     help="generator seed (default: the dataset's own)")
    rep.add_argument("--as-of", type=int, default=None, metavar="VERSION",
                     help="report over this archived dataset version "
                          "(default: latest)")
    rep.add_argument("--trace", default=None, metavar="PATH",
                     help="write a JSONL span trace of the run "
                          "(every pipeline task with status + timing)")

    srv = sub.add_parser(
        "serve", help="serve a saved dataset over the JSON HTTP API"
    )
    srv.add_argument("--data", required=True, help="saved dataset directory")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8000,
                     help="listen port (0 picks a free one; default: 8000)")
    srv.add_argument("--store", default=None,
                     help="artifact store directory "
                          "(default: <data>/.artifacts)")
    srv.add_argument("--no-store", action="store_true",
                     help="serve analyses without reading or writing "
                          "the artifact store")
    srv.add_argument("--workers", type=int, default=1,
                     help="worker processes accept()ing on one shared "
                          "socket (default: 1 = single-process; >1 "
                          "enables the pre-forked fleet, see repro.fleet)")
    srv.add_argument("--cache-size", type=int, default=256,
                     help="LRU capacity for rendered payloads "
                          "(0 disables; default: 256)")
    srv.add_argument("--cache-bytes", type=int, default=None,
                     help="byte budget for the payload LRU (per worker); "
                          "evicts oldest entries until under budget")
    srv.add_argument("--month", type=_parse_month, default=None,
                     help="reference month (default: the dataset's last)")
    srv.add_argument("--small", action="store_true",
                     help="dataset was generated with --small (labels)")
    srv.add_argument("--seed", type=int, default=None,
                     help="generator seed (default: the dataset's own)")
    srv.add_argument("--as-of", type=int, default=None, metavar="VERSION",
                     help="pin the server to this archived dataset version "
                          "(default: serve the latest and follow ingests)")
    srv.add_argument("--trace", default=None, metavar="PATH",
                     help="write a JSONL span trace on shutdown "
                          "(one http.request span per request)")

    trc = sub.add_parser(
        "trace", help="inspect a JSONL span trace written by --trace"
    )
    trc_sub = trc.add_subparsers(dest="trace_command", required=True)
    summ = trc_sub.add_parser(
        "summarize", help="print the slowest spans and per-name totals"
    )
    summ.add_argument("path", help="JSONL trace file (from --trace)")
    summ.add_argument("--top", type=int, default=15,
                      help="how many individual spans to list (default: 15)")

    crux = sub.add_parser("crux", help="CrUX-style public export")
    crux.add_argument("--data", required=True)
    crux.add_argument("--out", required=True)
    crux.add_argument("--platform", type=_parse_platform, default=None,
                      help="platform to export "
                           "(default: the dataset's last platform)")
    crux.add_argument("--metric", type=_parse_metric, default=None,
                      help="metric to export (default: page_loads — the "
                           "only metric the public CrUX dataset carries)")
    crux.add_argument("--month", type=_parse_month, default=None,
                      help="month to export (default: the dataset's last)")

    sub.add_parser("world", help="print world facts")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import api

    dataset = api.generate(
        small=args.small,
        seed=args.seed,
        countries=tuple(args.countries) if args.countries else None,
        platforms=tuple(args.platforms) if args.platforms else None,
        metrics=tuple(args.metrics) if args.metrics else None,
        months=tuple(args.months) if args.months else None,
        all_months=args.all_months,
        out=args.out,
        format=args.format,
        trace=args.trace,
    )
    print(f"wrote {len(dataset)} rank lists to {args.out} "
          f"({args.format})")
    if args.trace:
        print(f"wrote trace {args.trace}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from . import api
    from .core.errors import DatasetError
    from .export.io import detect_format

    src = args.data if args.data is not None else args.src
    dst = args.out if args.out is not None else args.dst
    if src is None or dst is None:
        print("convert needs a source and a destination: either "
              "positionally (`repro convert SRC DST`) or as "
              "`--data SRC --out DST`", file=sys.stderr)
        return 2
    source_format = detect_format(src)
    if source_format is None:
        print(f"no dataset under {src} (neither manifest.bin nor "
              "manifest.json)", file=sys.stderr)
        return 2
    try:
        dst = api.convert(src, dst, format=args.format)
    except DatasetError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"converted {src} ({source_format}) -> {dst} ({args.format})")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from . import api
    from .core.errors import DatasetError

    try:
        result = api.ingest(
            args.data,
            tuple(args.months),
            format=args.format,
            small=args.small,
            seed=args.seed,
            trace=args.trace,
        )
    except DatasetError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not result.changed:
        print(f"{args.data} already has "
              f"{' '.join(str(m) for m in result.months_present)}; "
              f"nothing to ingest (still version {result.version})")
    else:
        print(f"ingested {' '.join(str(m) for m in result.months_added)} "
              f"into {args.data} ({result.format}): "
              f"{result.slices_added} new slices in {result.seconds:.2f}s")
        print(f"dataset version {result.version_before} -> {result.version} "
              f"({len(result.months_present)} months)")
    if args.trace:
        print(f"wrote trace {args.trace}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from . import api
    from .report import render_table

    dataset = api.load(args.data)
    country = args.country.upper()
    if country not in dataset.countries:
        print(
            f"unknown country {args.country!r}; dataset has: "
            + " ".join(dataset.countries),
            file=sys.stderr,
        )
        return 2
    rows = []
    for platform in dataset.platforms:
        for metric in dataset.metrics:
            ranked = dataset.get_or_none(
                country, platform, metric, dataset.months[-1]
            )
            if ranked is None:
                continue
            rows.append((
                platform.value, metric.value,
                ", ".join(ranked.top(args.top).sites),
            ))
    print(render_table(
        ("platform", "metric", f"top {args.top}"), rows,
        title=f"{country}, {dataset.months[-1]}",
    ))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import api
    from .core.errors import DatasetError, PipelineError, TaskUnavailable
    from .pipeline import canonical_json, default_registry

    try:
        result = api.analyze(
            args.data, args.analysis, small=args.small, seed=args.seed,
            as_of=args.as_of,
        )
    except DatasetError as exc:
        # Covers an unknown --as-of too: the message lists the
        # available versions, mirroring unknown-country/unknown-task.
        print(exc, file=sys.stderr)
        return 2
    except TaskUnavailable as exc:
        print(exc, file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(exc, file=sys.stderr)
        return 1
    render = default_registry().get(args.analysis).render
    print(render(result) if render is not None else canonical_json(result))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from . import api
    from .core.errors import DatasetError
    from .pipeline import ArtifactStore

    if args.no_store:
        store = None
    else:
        store = ArtifactStore(
            args.store or Path(args.data) / ".artifacts"
        )
    try:
        report = api.report(
            args.data,
            args.out,
            tasks=args.tasks,
            store=store,
            no_store=args.no_store,
            month=args.month,
            small=args.small,
            seed=args.seed,
            as_of=args.as_of,
            trace=args.trace,
        )
    except DatasetError as exc:
        print(exc, file=sys.stderr)
        return 2
    for name in report.order:
        record = report.records[name]
        note = f"  ({record.error})" if record.error else ""
        print(f"{record.status.value:8s} {name}{note}")
    print(f"executed {report.executed}, cached {report.cached}, "
          f"failed {report.failed}, skipped {report.skipped}")
    if store is not None:
        print(f"artifact store {store.root}: {store.stats}")
    print(f"wrote run directory {args.out}")
    if args.trace:
        print(f"wrote trace {args.trace}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import api
    from .core.errors import DatasetError
    from .export.io import latest_version
    from .service import ENDPOINTS, serve_forever

    if args.workers > 1 and args.trace:
        print("--trace cannot be combined with --workers > 1 "
              "(fleet workers would race on one trace file)",
              file=sys.stderr)
        return 2
    try:
        version = (args.as_of if args.as_of is not None
                   else latest_version(args.data))
        server = api.serve(
            args.data,
            host=args.host,
            port=args.port,
            workers=args.workers,
            store=args.store,
            no_store=args.no_store,
            cache_size=args.cache_size,
            cache_bytes=args.cache_bytes,
            month=args.month,
            small=args.small,
            seed=args.seed,
            as_of=args.as_of,
            block=False,
            trace=args.trace,
        )
    except DatasetError as exc:
        print(exc, file=sys.stderr)
        return 2
    # The first line is `serving {data} on {url}` for every worker
    # count: the URL is the *resolved*, connectable address (also for
    # --port 0 and wildcard binds), and smoke tests grep exactly this
    # line.  The served dataset version goes on its own line right
    # after, so the grep target never changes shape.
    print(f"serving {args.data} on {server.url}", flush=True)
    print(f"dataset version {version}"
          + (" (pinned)" if args.as_of is not None else ""), flush=True)
    if args.workers > 1:
        pids = " ".join(str(pid) for pid in server.worker_pids())
        print(f"fleet: {args.workers} workers (pids {pids})", flush=True)
    print("endpoints: " + " ".join(ENDPOINTS), flush=True)
    if args.trace:
        print(f"tracing to {args.trace} (written on shutdown)", flush=True)
    if args.workers > 1:
        return server.wait()
    serve_forever(server)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import format_summary, read_trace

    path = Path(args.path)
    if not path.is_file():
        print(f"no trace file at {path}", file=sys.stderr)
        return 2
    try:
        spans = read_trace(path)
    except ValueError as exc:
        print(f"malformed trace {path}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"trace {path} contains no spans", file=sys.stderr)
        return 1
    print(format_summary(spans, top=args.top))
    return 0


def _cmd_crux(args: argparse.Namespace) -> int:
    import json

    from . import api
    from .export.crux import export_crux

    dataset = api.load(args.data)
    platform = args.platform or dataset.platforms[-1]
    metric = args.metric or (
        Metric.PAGE_LOADS if Metric.PAGE_LOADS in dataset.metrics
        else dataset.metrics[-1]
    )
    month = args.month or dataset.months[-1]
    try:
        export = export_crux(dataset, platform, month, metric=metric)
    except ValueError:
        print(
            f"dataset has no ({platform.value}, {metric.value}, {month}) "
            f"slice; months: {' '.join(str(m) for m in dataset.months)}, "
            f"platforms: {' '.join(p.value for p in dataset.platforms)}, "
            f"metrics: {' '.join(m.value for m in dataset.metrics)}",
            file=sys.stderr,
        )
        return 2
    payload = {
        "platform": export.platform.value,
        "metric": export.metric.value,
        "month": str(export.month),
        "global": export.global_buckets,
        "countries": export.per_country,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload), encoding="utf-8")
    print(f"wrote CrUX-style export ({len(export.global_buckets)} global "
          f"sites, {len(export.per_country)} countries) to {out}")
    return 0


def _cmd_world(_: argparse.Namespace) -> int:
    from .categories.taxonomy import TABLE3
    from .report import render_table
    from .world import COUNTRIES, NAMED_SITES, by_region_group

    print(render_table(
        ("region group", "countries"),
        [(group, " ".join(c.code for c in members))
         for group, members in sorted(by_region_group().items())],
        title=f"{len(COUNTRIES)} study countries (Appendix A)",
    ))
    print(f"\nTaxonomy: {len(TABLE3)} categories in "
          f"{len(TABLE3.supercategories)} supercategories (Table 3)")
    print(f"Curated site roster: {len(NAMED_SITES)} named sites")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "convert": _cmd_convert,
    "inspect": _cmd_inspect,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "crux": _cmd_crux,
    "world": _cmd_world,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
