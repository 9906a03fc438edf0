"""Command-line entry point: ingest, pool, select, run, sweep, cv, report, replay."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from collections import Counter
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import __version__
from .corpus import (
    BUILTIN_SCHEMES,
    Corpus,
    CorpusError,
    SplitError,
    load_corpus,
    load_scheme,
)
from .evaluation import SCORING_POLICIES, EvaluationError, fold_reports
from .gateway import (
    DEFAULT_PROFILES,
    Client,
    ConstantBackend,
    ContextOverflowError,
    EchoGoldBackend,
    GatewayEmbeddingProvider,
    GatewayError,
    ModelProfile,
    ProtocolError,
    ResponseCache,
    TransportError,
    mock_name,
)
from .promptkit import DEFAULT_TEMPLATE, PromptError, load_template
from .reporting import (
    ReportingError,
    RunManifest,
    artifact_json,
    atomic_write,
    curves_csv,
    emit_table,
    file_digest,
    read_report,
    replay,
    split_payload,
    trace_jsonl,
)
from .selection import METHODS, SelectionError, build_pool, rank
from .sweep import (
    DEFAULT_GRID,
    DEFAULT_OVERPROMPTING_THRESHOLD,
    SweepError,
    SweepPlan,
    SweepRun,
    run_sweep,
)
from .vectorspace import EmbeddingProvider, HashEmbeddingProvider, VectorSpaceError

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4
EXIT_BUG = 5


class ConfigError(Exception):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _typed(kind, value: object, key: str):
    """value as a _KEYS type, or a ConfigError naming its config key. [T] is a
    list of T, and a tuple any one of its types. Only an int or float is converted
    (from a number or numeric string), never from a bool, nor an int from a fraction."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return [_typed(kind[0], item, key) for item in value]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for option in kinds:
        if isinstance(value, bool):
            break
        if isinstance(value, option):
            return value
        fractional = isinstance(value, float) and not value.is_integer()
        if option is float or (option is int and not fractional):
            try:
                return option(value)
            except (TypeError, ValueError):
                pass
    names = " or ".join(option.__name__ for option in kinds)
    raise ConfigError(f"{key}: expected {names}, got {value!r}")


# Each config key of run, sweep and cv: its type (see _typed) and the commands
# that read it. Each flag of those commands has its config key as its dest.
_ALL = ("run", "sweep", "cv")
_KEYS: dict[str, tuple[object, tuple[str, ...]]] = {
    "data": (str, _ALL),
    "scheme": (str, _ALL),
    "text_col": (str, _ALL),
    "label_col": (str, _ALL),
    "pool_size": (int, _ALL),
    "pool_seed": (int, _ALL),
    "selection_seed": (int, _ALL),
    "scoring_policy": (str, _ALL),
    "template": (str, _ALL),
    "ordering": (str, _ALL),
    "provider": (str, _ALL),
    "profiles": ((dict, str), _ALL),  # an object, or the path of one
    "cache_dir": (str, _ALL),
    "out_dir": (str, _ALL),
    "model": (str, ("run", "cv")),
    "method": (str, ("run", "cv")),
    "k": (int, ("run", "cv")),
    "split": (dict, ("run", "sweep")),
    "models": ([str], ("sweep",)),
    "methods": ([str], ("sweep",)),
    "grid": ([int], ("sweep",)),
    "overprompting_threshold": (float, ("sweep",)),
    "k_folds": (int, ("cv",)),
    "split_seed": (int, ("cv",)),
    "on_small_class": (str, _ALL),
}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"no such config file: {file}")
    try:
        payload = json.loads(file.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{file}: unreadable or not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{file}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{file}: config must be a JSON object")
    return payload


def _merge_config(args: argparse.Namespace, defaults: dict, required: set[str]) -> dict:
    """defaults < --config file < flags, each value checked once against _KEYS.
    A null is the same as leaving the key out."""
    file_cfg = _load_config_file(args.config)
    keys = {key for key, (_, commands) in _KEYS.items() if args.command in commands}
    unknown = set(file_cfg) - keys
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    merged = {"scoring_policy": "strict", **defaults}
    for source in (file_cfg, vars(args)):
        merged.update({k: v for k, v in source.items() if k in keys and v is not None})
    missing = required - set(merged)
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(sorted(missing))}")
    return {key: _typed(_KEYS[key][0], value, key) for key, value in merged.items()}


def _load_data(cfg: dict) -> Corpus:
    scheme = load_scheme(cfg["scheme"])
    return load_corpus(
        cfg["data"],
        scheme,
        text_col=cfg.get("text_col") or "text",
        label_col=cfg.get("label_col") or "label",
    )


def _build_profiles(cfg: dict, models: tuple[str, ...] = ()) -> dict[str, ModelProfile]:
    """Built-in profiles overlaid with the config's; check each of models has
    a chat one, each mock:// profile's backend (see _mock) and the provider spec."""
    profiles = dict(DEFAULT_PROFILES)
    spec = cfg.get("profiles") or {}
    if isinstance(spec, str):
        spec = _load_config_file(spec)
    for name, fields in spec.items():
        if not isinstance(fields, dict):
            raise ConfigError(f"profile {name!r}: fields must be an object")
        base = profiles.get(name)
        try:
            profiles[name] = (
                dataclasses.replace(base, **fields)
                if base
                else ModelProfile(**{"name": name, **fields})
            )
        except (TypeError, GatewayError) as exc:  # an unknown field, or a bad value
            raise ConfigError(f"profile {name!r}: {exc}") from exc
    missing = [model for model in models if model not in profiles]
    if missing:
        raise ConfigError(f"no profile for model(s): {', '.join(missing)}")
    embedding = [model for model in models if profiles[model].kind != "chat"]
    if embedding:
        raise ConfigError(f"model(s) {', '.join(embedding)}: an embedding profile cannot classify")
    for profile in profiles.values():
        _mock(profile)
    _provider(cfg, profiles)
    return profiles


def _mock(profile: ModelProfile):
    """None, or for a mock://<name> profile a maker of that mock's backend over
    a corpus. hash<dim> answers embedding profiles; echo-gold, constant/<X>
    and unparseable answer chat profiles; any other name is a ConfigError."""
    name = mock_name(profile.base_url)
    if name is None:
        return None
    if name.startswith("hash"):
        encoder = HashEmbeddingProvider(
            _typed(int, name[len("hash") :] or "64", f"{profile.name}.base_url"))
        kind, make = "embedding", lambda corpus: encoder
    elif name == "echo-gold":
        kind, make = "chat", lambda corpus: EchoGoldBackend(
            {r.text: corpus.scheme.canonical_name(r.label) for r in corpus.records})
    elif name.startswith("constant/"):
        kind, make = "chat", lambda corpus: ConstantBackend(name[len("constant/") :])
    elif name == "unparseable":
        kind, make = "chat", lambda corpus: ConstantBackend("I cannot classify this.")
    else:
        raise ConfigError(f"unknown mock backend {name!r}")
    if kind != profile.kind:
        raise ConfigError(f"profile {profile.name!r}: mock://{name} answers {kind} profiles")
    return make


def _provider(cfg: dict, profiles: dict[str, ModelProfile]):
    """A maker, given the client, of the encoder that the provider spec names:
    hash[:<dim>], or profile:<name> of an embedding profile."""
    spec = cfg.get("provider", "hash:64")
    if spec == "hash" or spec.startswith("hash:"):
        encoder = HashEmbeddingProvider(_typed(int, spec[len("hash:") :] or "64", "provider"))
        return lambda client: encoder
    if spec.startswith("profile:"):
        name = spec[len("profile:") :]
        if name not in profiles:
            raise ConfigError(f"provider profile {name!r} not found")
        if profiles[name].kind != "embedding":
            raise ConfigError(f"provider profile {name!r} is not an embedding profile")
        return lambda client: GatewayEmbeddingProvider(client, profiles[name])
    raise ConfigError(f"unknown provider spec {spec!r} (use hash:<dim> or profile:<name>)")


def _open_session(
    cfg: dict, profiles: dict[str, ModelProfile]
) -> tuple[Corpus, Client, EmbeddingProvider]:
    """Load the corpus and open a client with its mocks and embedding provider."""
    corpus = _load_data(cfg)
    cache = ResponseCache(cfg.get("cache_dir"))
    if cache.torn_lines:
        print(
            f"warning: skipped {cache.torn_lines} torn line(s) in cache segment(s) "
            + ", ".join(map(str, cache.torn_segments)),
            file=sys.stderr,
        )
    client = Client(cache=cache)
    for profile in profiles.values():
        if (make := _mock(profile)) and mock_name(profile.base_url) not in client.mocks:
            client.register_mock(mock_name(profile.base_url), make(corpus))
    return corpus, client, _provider(cfg, profiles)(client)


def _write_artifacts(
    out_dir: Path, cfg: dict, started: str, artifacts: dict[str, tuple[str, object]]
) -> None:
    """Write each {name: (path relative to out_dir, content)} artifact, then the
    manifest listing them all. A str content is written as it is, and anything
    else goes through artifact_json. Then each file that out_dir's previous
    manifest listed and this one does not is removed, if it lies inside out_dir."""
    manifest_path = out_dir / "manifest.json"
    try:
        previous = list(json.loads(manifest_path.read_bytes())["artifacts"].values())
    except (OSError, ValueError, KeyError, TypeError, AttributeError):  # none, or not a manifest
        previous = []
    for rel, content in artifacts.values():
        text = content if isinstance(content, str) else artifact_json(content)
        atomic_write(out_dir / rel, text)
    manifest_cfg = {k: v for k, v in cfg.items() if k not in ("out_dir", "cache_dir")}
    manifest_cfg["dataset_sha256"] = file_digest(cfg["data"])
    listed = {name: rel for name, (rel, _) in artifacts.items()}
    manifest = RunManifest(manifest_cfg, listed, __version__, started, _now())
    atomic_write(manifest_path, artifact_json(manifest))
    root, written = out_dir.resolve(), set(listed.values())
    for rel in previous:
        if isinstance(rel, str) and rel not in written and not Path(rel).is_absolute():
            stale = (out_dir / rel).resolve()
            if root in stale.parents and stale.is_file() and stale != root / "manifest.json":
                stale.unlink()


def _check_output(name: str, path: str, directory: bool = False) -> None:
    """Refuse, as a ConfigError, an output path that cannot be written: a file
    that is a directory, or a path whose nearest existing part is not a directory
    (a directory output is made on first write; a file output's parent is)."""
    path = Path(path)
    if not directory and path.is_dir():
        raise ConfigError(f"{name} {path} is a directory")
    made = path if directory else path.parent
    existing = next(part for part in (made, *made.parents) if part.exists())
    if not existing.is_dir():
        raise ConfigError(f"{name} {path}: {existing} is not a directory")


def _run_plan(args: argparse.Namespace, cfg: dict, outputs, **fields) -> int:
    """Run the SweepPlan of fields and cfg's shared settings over cfg's corpus
    and cache; write and print what outputs(corpus, run) gives: artifacts (see
    _write_artifacts), a --json payload and a summary line, both given out_dir,
    and the lines after it; return the exit code. A dry run prints what would
    run. run and cv are one-cell plans of cfg's model, method and k: their dry
    run prints cfg, their failure is raised before anything is written, and
    their artifacts add the cell's trace.
    """
    started = _now()
    one_cell = args.command != "sweep"
    if one_cell:
        fields.update(models=(cfg["model"],), methods=(cfg["method"],), shot_grid=(cfg["k"],))
    as_is = ("pool_size", "pool_seed", "selection_seed", "scoring_policy", "on_small_class",
             "ordering")
    template = cfg.get("template", "default")
    plan = SweepPlan(
        **fields,
        **{key: cfg[key] for key in as_is if key in cfg},
        template=DEFAULT_TEMPLATE if template == "default" else load_template(template),
    )
    profiles = _build_profiles(cfg, plan.models)
    for key in ("out_dir", "cache_dir"):
        if key in cfg:
            _check_output(key, cfg[key], directory=True)
    if args.dry_run:
        if one_cell:
            shown = {k: v for k, v in cfg.items() if k != "profiles"}
            lines = [f"{k}: {v}" for k, v in sorted(shown.items())]
        else:
            shown = {"n_cells": plan.n_cells, "cells": [list(cell) for cell in plan.cells()]}
            lines = [f"{m}  {meth}  k={k}" for m, meth, k in plan.cells()]
            lines.append(f"{plan.n_cells} cells")
        _print(args, shown, "\n".join(lines))
        return EXIT_OK
    corpus, client, provider = _open_session(cfg, profiles)
    out_dir = Path(cfg["out_dir"])
    with client:
        run = run_sweep(plan, corpus, profiles, client, provider)
    if one_cell:
        (outcome,) = run.outcomes.values()
        if isinstance(outcome, Exception):
            raise outcome
    artifacts, payload, line, after = outputs(corpus, run)
    if one_cell:
        trace = trace_jsonl(outcome.report.metadata, chain(*outcome.per_partition))
        artifacts["trace"] = ("trace.jsonl", trace)
    _write_artifacts(out_dir, cfg, started, artifacts)
    payload["out_dir"] = str(out_dir)
    _print(args, payload, "\n".join([f"{line} -> {out_dir}", *after]))
    return EXIT_PARTIAL if run.failures else EXIT_OK


def _print(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = _load_data(vars(args))
    payload = {
        "records": len(corpus),
        "scheme": corpus.scheme.name,
        "class_counts": corpus.class_counts,
    }
    lines = [f"records: {len(corpus)}  scheme: {corpus.scheme.name}"]
    for lid in corpus.scheme.label_ids:
        name = corpus.scheme.canonical_name(lid)
        lines.append(f"  {lid:<4} {name:<28} {corpus.class_counts[lid]}")
    _print(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_pool(args: argparse.Namespace) -> int:
    corpus = _load_data(vars(args))
    pool = build_pool(list(corpus.records), corpus.scheme, args.size, args.seed)
    counts = {lid: len(ids) for lid, ids in pool.per_class.items()}
    payload = {"size": len(pool), "seed": args.seed, "per_class": counts}
    text = "\n".join(
        [f"pool size: {len(pool)} (seed {args.seed})"]
        + [f"  {lid:<4} {n}" for lid, n in counts.items()]
    )
    _print(args, payload, text)
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    corpus = _load_data(vars(args))
    pool = build_pool(
        list(corpus.records),
        corpus.scheme,
        args.pool_size if args.pool_size is not None else len(corpus),
        args.pool_seed,
    )
    provider = HashEmbeddingProvider(args.hash_dim)
    ranking = rank(pool, [args.query], args.method, args.k, args.seed, provider)[0]
    chosen = [
        {
            "record_id": rid,
            "similarity": sim,
            "label": pool.record(rid).label,
            "text": pool.record(rid).text,
        }
        for rid, sim in ranking.take(args.k)
    ]
    payload = {
        "method": args.method,
        "k_requested": args.k,
        "k_delivered": len(chosen),
        "chosen": chosen,
        "class_counts": Counter(item["label"] for item in chosen),
    }
    text_lines = [f"{args.method} selection, k={len(chosen)}:"]
    for item in chosen:
        sim = "-" if item["similarity"] is None else f"{item['similarity']:.4f}"
        text_lines.append(f"  [{item['label']}] ({sim}) {item['text']}")
    _print(args, payload, "\n".join(text_lines))
    return EXIT_OK


def _split_spec(cfg: dict) -> dict:
    """SweepPlan's split fields from the split object of run or sweep: its kind
    (holdout, kfold or full), the holdout fraction or fold count, and the seed."""
    split = cfg.get("split", {"kind": "holdout", "fraction": 0.8, "seed": 0})
    if "kind" not in split:
        raise ConfigError("split must be an object with a 'kind'")
    kind = split["kind"]
    if kind not in ("holdout", "kfold", "full"):
        raise ConfigError(f"split kind must be holdout, kfold or full, got {kind!r}")
    param_key = {"holdout": "fraction", "kfold": "folds"}.get(kind)
    unknown = sorted(set(split) - {"kind", "seed", param_key})
    if unknown:
        raise ConfigError(f"unknown {kind} split key(s): {', '.join(unknown)}")
    return {
        "split_kind": kind,
        "split_param": (
            _typed(int, split.get("folds", 10), "split.folds")
            if kind == "kfold"
            else _typed(float, split.get("fraction", 0.8), "split.fraction")
        ),
        "split_seed": _typed(int, split.get("seed", 0), "split.seed"),
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, {}, {"data", "scheme", "model", "method", "k", "out_dir"})

    def outputs(corpus: Corpus, run: SweepRun):
        (report,) = run.reports.values()
        artifacts = {"report": ("report.json", report)}
        if run.split is not None:
            artifacts["split"] = ("split.json", split_payload(run.split))
        payload = {
            "weighted_f1": report.weighted_f1,
            "macro_f1": report.macro_f1,
            "n_predictions": report.n_predictions,
        }
        line = (
            f"weighted F1 {report.weighted_f1:.4f}  macro F1 {report.macro_f1:.4f}  "
            f"({report.n_predictions} predictions)"
        )
        return artifacts, payload, line, []

    return _run_plan(args, cfg, outputs, **_split_spec(cfg))


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = {"methods": list(METHODS), "grid": list(DEFAULT_GRID),
                "overprompting_threshold": DEFAULT_OVERPROMPTING_THRESHOLD}
    cfg = _merge_config(args, defaults, {"data", "scheme", "models", "out_dir"})

    def outputs(corpus: Corpus, run: SweepRun):
        artifacts = {
            "curves_json": ("curves.json", {"series": run.curves}),
            "curves_csv": ("curves.csv", curves_csv(run.curves)),
            "sweep": ("sweep.json", {"curves": run.curves, "failures": run.failures}),
        }
        for (model, method, k), report in sorted(run.reports.items()):
            artifacts[f"cell:{model}:{method}:{k}"] = (
                f"cells/{model}__{method}__k{k}.json", report
            )
        payload = {
            "n_cells": len(run.outcomes),
            "n_completed": len(run.reports),
            "n_failed": len(run.failures),
        }
        line = f"sweep: {len(run.reports)}/{len(run.outcomes)} cells completed" + (
            f", {len(run.failures)} failed" if run.failures else ""
        )
        failed = [
            f"  FAILED {failure.model} {failure.method} k={failure.shot_count}: {failure.error}"
            for failure in run.failures
        ]
        return artifacts, payload, line, failed

    return _run_plan(
        args, cfg, outputs, models=tuple(cfg["models"]), methods=tuple(cfg["methods"]),
        shot_grid=tuple(cfg["grid"]), overprompting_threshold=cfg["overprompting_threshold"],
        **_split_spec(cfg),
    )


def _key(payload: object, key: str, source: object) -> object:
    """payload[key], or a ConfigError naming the key that source lacks."""
    if not isinstance(payload, dict) or key not in payload:
        raise ConfigError(f"{source}: expected a JSON object with a {key!r} key")
    return payload[key]


def _shots_from_manifest(path: str, model: str, method: str) -> int:
    manifest_path = Path(path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        curves_path = manifest_path.parent / _key(
            _key(manifest, "artifacts", path), "curves_json", path
        )
        curves = json.loads(curves_path.read_text(encoding="utf-8"))
    except (OSError, TypeError, ValueError) as exc:  # a non-str path, not UTF-8, not JSON
        raise ConfigError(f"cannot read sweep manifest {path}: {exc}") from exc
    all_series = _key(curves, "series", curves_path)
    if not isinstance(all_series, list):
        raise ConfigError(f"{curves_path}: 'series' must be a list, got {all_series!r}")
    for series in all_series:
        name, meth, shots = (
            _key(series, key, curves_path) for key in ("model", "method", "optimal_shots")
        )
        if (name, meth) == (model, method):
            return _typed(int, shots, f"{curves_path}: optimal_shots")
    raise ConfigError(f"no curve for ({model}, {method}) in {path}")


def cmd_cv(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, {"k_folds": 10}, {"data", "scheme", "model", "method", "out_dir"})
    if args.shots_from is not None:
        cfg["k"] = _shots_from_manifest(args.shots_from, cfg["model"], cfg["method"])
    if cfg.get("k") is None:
        raise ConfigError("cv needs a shot count: --shots N or --shots-from MANIFEST")

    def outputs(corpus: Corpus, run: SweepRun):
        (cell_run,) = run.outcomes.values()
        report = cell_run.report
        layout = "binary" if corpus.scheme.task_kind == "binary" else "multiclass"
        table = emit_table([report], layout)
        artifacts = {
            "aggregate": ("aggregate.json", report),
            "split": ("split.json", split_payload(run.split)),
            "table_txt": ("table.txt", table.text),
            "table_csv": ("table.csv", table.csv_text),
        }
        for i, fold_report in enumerate(fold_reports(cell_run, corpus.scheme)):
            artifacts[f"fold:{i}"] = (f"folds/fold{i:02d}.json", fold_report)
        payload = {
            "weighted_f1": report.weighted_f1,
            "macro_f1": report.macro_f1,
            "folds": cfg["k_folds"],
        }
        line = (
            f"{cfg['k_folds']}-fold aggregate: weighted F1 {report.weighted_f1:.4f}  "
            f"macro F1 {report.macro_f1:.4f}"
        )
        return artifacts, payload, line, []

    return _run_plan(
        args, cfg, outputs, split_kind="kfold", split_param=cfg["k_folds"],
        split_seed=cfg.get("split_seed", 0),
    )


def cmd_report(args: argparse.Namespace) -> int:
    if args.out_base:
        for suffix in (".txt", ".csv"):
            _check_output("--out-base", args.out_base + suffix)
    reports = [read_report(path) for path in args.reports]
    table = emit_table(reports, args.layout)
    if args.out_base:
        atomic_write(args.out_base + ".txt", table.text)
        atomic_write(args.out_base + ".csv", table.csv_text)
    if args.json:
        print(json.dumps({"rows": len(reports)}))
    else:
        print(table.text, end="")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    if args.out:
        _check_output("--out", args.out)
    scheme = load_scheme(args.scheme)
    report = replay(args.trace, scheme, args.policy)
    if args.out:
        atomic_write(args.out, artifact_json(report))
    payload = {
        "weighted_f1": report.weighted_f1,
        "macro_f1": report.macro_f1,
        "n_predictions": report.n_predictions,
        "scoring_policy": report.metadata.get("scoring_policy"),
    }
    _print(
        args,
        payload,
        f"replayed {report.n_predictions} predictions: weighted F1 "
        f"{report.weighted_f1:.4f}  macro F1 {report.macro_f1:.4f}",
    )
    return EXIT_OK


def _add_data_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--data", required=required, help="labeled CSV path")
    parser.add_argument(
        "--scheme",
        required=required,
        help=f"label scheme: built-in ({', '.join(sorted(BUILTIN_SCHEMES))}) or JSON file",
    )
    parser.add_argument("--text-col", default=None, help="CSV text column (default: text)")
    parser.add_argument("--label-col", default=None, help="CSV label column (default: label)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotsweep",
        description="Few-shot prompting harness for text classification.",
    )
    parser.add_argument("--version", action="version", version=f"shotsweep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)  # every command takes it
    json_flag.add_argument("--json", action="store_true")
    configured = argparse.ArgumentParser(add_help=False)  # run, sweep and cv take these
    configured.add_argument("--config", default=None, help="JSON config")
    configured.add_argument("--out", dest="out_dir", metavar="OUT", help="artifact directory")
    configured.add_argument("--cache-dir", default=None)
    configured.add_argument(
        "--dry-run", action="store_true", help="validate the config and print what would run"
    )

    def command(name: str, fn, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[*parents, json_flag])
        p.set_defaults(fn=fn)
        return p

    p = command("ingest", cmd_ingest, "load a corpus and print its class distribution")
    _add_data_args(p)

    p = command("pool", cmd_pool, "build a stratified few-shot pool and show counts")
    _add_data_args(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = command("select", cmd_select, "select examples for one query")
    _add_data_args(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool-size", type=int, default=None)
    p.add_argument("--pool-seed", type=int, default=0)
    p.add_argument("--hash-dim", type=int, default=64)

    p = command("run", cmd_run, "single evaluation run (holdout or full corpus)", configured)
    _add_data_args(p, required=False)
    p.add_argument("--model", default=None)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--k", type=int, default=None)

    command("sweep", cmd_sweep, "run a (models x methods x shot grid) sweep", configured)

    p = command("cv", cmd_cv, "k-fold cross-validation at a fixed shot count", configured)
    _add_data_args(p, required=False)
    p.add_argument("--model", default=None)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--shots", dest="k", metavar="SHOTS", type=int)
    p.add_argument(
        "--shots-from",
        default=None,
        help="sweep manifest; use that sweep's optimal shot count for this model/method",
    )
    p.add_argument("--folds", dest="k_folds", metavar="FOLDS", type=int)

    p = command("report", cmd_report, "format stored reports as tables")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--layout", choices=("binary", "multiclass"), required=True)
    p.add_argument("--out-base", default=None, help="write <base>.txt and <base>.csv")

    p = command("replay", cmd_replay, "re-score a trace without calling any model")
    p.add_argument("--trace", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--policy", choices=SCORING_POLICIES, default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SweepError, SelectionError, PromptError, VectorSpaceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, SplitError, EvaluationError, ReportingError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TransportError, ProtocolError, ContextOverflowError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in shotsweep", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
