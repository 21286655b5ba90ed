"""Command-line front end.

Subcommands cover the whole pipeline: ``gen`` writes games from the
built-in families, ``info`` analyses recall structure, ``build`` and
``belief-game`` materialize the two representations, ``solve`` runs the
regret solvers, ``oracle-check`` certifies an averaged strategy against
the enumeration oracle, and ``bench`` sweeps a suite into a CSV.

Every artifact written to disk embeds a run manifest (subcommand, flags,
tool version, input hash, timestamp); JSON artifacts carry it under a
``manifest`` key and CSV files as a leading ``#`` comment line.  Exit
codes: 0 success, 2 resource budget exceeded, 1 validation or usage
error, or a reader that closed stdout (which prints nothing).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import astuple
from datetime import datetime, timezone
from typing import Any, Sequence

from . import __version__
from .analysis import GameAnalysis, analyze
from .belief import belief_game_to_doc, make_belief_game
from .build import BuildStats, build_tbdag, check_size_bounds, count_tbdag, tbdag_to_doc
from .dag import best_response
from .game import (
    MAX,
    MIN,
    BudgetExceededError,
    ExtensiveFormGame,
    GameValidationError,
    check_budget,
    parse_game,
    serialize_game,
)
from .solve import (
    ALGORITHMS,
    CSV_COLUMNS,
    MODES,
    SolveConfig,
    check_realization,
    enumeration_oracle,
    payoffs_from_realization,
    solve,
)
from .transforms import binarize_actions
from .zoo import ZooSpec, generate, list_presets

_FAMILY_ALIASES = {
    "kuhn": "kuhn",
    "leduc": "leduc",
    "liars-dice": "liars_dice",
    "fig2": "signaling_fig2",
    "fig8": "public_counterexample_fig8",
    "fig9": "inflation_counterexample_fig9",
    "worst-case": "worst_case",
}

_SPLIT_ALIASES = {
    "obs": "observation",
    "observation": "observation",
    "pub": "public",
    "public": "public",
}


# --------------------------------------------------------------------------
# manifests and shared plumbing


def _manifest(args: argparse.Namespace, source: dict[str, Any] | None = None) -> dict[str, Any]:
    """Provenance record embedded in every output artifact."""
    flags = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func", "cmd") and not k.startswith("_")
    }
    doc: dict[str, Any] = {
        "tool": "tbdag",
        "version": __version__,
        "subcommand": args.cmd,
        "flags": flags,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if source:
        doc.update(source)
    return doc


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_game(target: str) -> tuple[ExtensiveFormGame, str, dict[str, Any]]:
    """Load ``target`` as a JSON game file, or generate it as a preset.

    Returns the game, a short label, and the manifest source record.
    """
    if os.path.exists(target):
        g = parse_game(_read_json(target))
        label = os.path.splitext(os.path.basename(target))[0]
        return g, label, {"input": target, "input_sha256": _sha256(target)}
    presets = list_presets()
    if target in presets:
        return generate(presets[target]), target, {"input": f"preset:{target}"}
    raise GameValidationError(
        f"{target!r} is neither an existing file nor a preset; "
        f"presets: {', '.join(sorted(presets))}"
    )


def _start(args: argparse.Namespace) -> tuple[ExtensiveFormGame, str, dict[str, Any]]:
    """Resolve ``args.game`` and stamp the manifest: the game, its label,
    and the payload head every game command prints."""
    g, label, source = _resolve_game(args.game)
    return g, label, {"manifest": _manifest(args, source), "game": label}


def _read_json(path: str) -> Any:
    """Parse a UTF-8 JSON file; a decode error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GameValidationError(f"{path}: {exc}") from None


def _write_json(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(args: argparse.Namespace, lines: Sequence[str], payload: dict[str, Any]) -> None:
    """The one output path: ``payload`` as one JSON object, or the text
    lines in one write."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _game_summary(g: ExtensiveFormGame) -> dict[str, Any]:
    return {
        "nodes": g.num_nodes,
        "terminals": len(g.terminals),
        "infosets": {
            "max": len(g.side_infosets(MAX)),
            "min": len(g.side_infosets(MIN)),
        },
        "branching": g.branching_factor,
        "depth": g.max_depth,
    }


def _summary_lines(label: str, g: ExtensiveFormGame) -> list[str]:
    s = _game_summary(g)
    return [
        f"game {label}: {s['nodes']} nodes, {s['terminals']} terminals, "
        f"branching {s['branching']}, depth {s['depth']}",
        f"infosets: max {s['infosets']['max']}, min {s['infosets']['min']}",
    ]


def _parse_team(text: str) -> tuple[int, ...]:
    try:
        team = tuple(sorted({int(t) for t in text.split(",") if t.strip()}))
    except ValueError as exc:
        raise GameValidationError(f"bad team list {text!r}: expected e.g. '1,3'") from exc
    if not team:
        raise GameValidationError(f"bad team list {text!r}: empty")
    return team


# --------------------------------------------------------------------------
# gen


def _spec_from_args(args: argparse.Namespace) -> ZooSpec:
    presets = list_presets()
    structural = ("n", "r", "bets", "suits", "faces", "k", "b", "d", "c")
    provided = any(getattr(args, f) is not None for f in structural)
    if args.target in presets and not provided and not (args.team_min or args.team_max):
        return presets[args.target]
    family = _FAMILY_ALIASES.get(args.target)
    if family is None:
        raise GameValidationError(
            f"unknown game {args.target!r}: not a preset and not one of "
            f"{', '.join(sorted(_FAMILY_ALIASES))}"
        )
    if args.team_min and args.team_max:
        raise GameValidationError("give --team-min or --team-max, not both")
    min_team: tuple[int, ...] = ()
    if args.team_min:
        min_team = _parse_team(args.team_min)
    elif args.team_max:
        if args.n is None:
            raise GameValidationError("--team-max needs -n to take the complement")
        max_team = _parse_team(args.team_max)
        if not all(1 <= p <= args.n for p in max_team):
            raise GameValidationError(f"bad max team {max_team!r} for {args.n} players")
        min_team = tuple(p for p in range(1, args.n + 1) if p not in max_team)
        if not min_team:
            raise GameValidationError("--team-max covers every player")
    return ZooSpec(
        family=family,
        players=args.n or 0,
        ranks=args.r or 0,
        bets=args.bets or 0,
        suits=args.suits or 0,
        faces=args.faces or 0,
        k=args.k or 0,
        branching=args.b or 0,
        depth=args.d or 0,
        columns=args.c or 0,
        min_team=min_team,
    )


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    g = generate(spec)
    out = args.out or f"{args.target}.json"
    doc = serialize_game(g)
    doc["manifest"] = _manifest(args, {"input": f"family:{spec.family}"})
    _write_json(out, doc)
    payload = {"manifest": doc["manifest"], "out": out, **_game_summary(g)}
    _emit(args, _summary_lines(args.target, g) + [f"wrote {out}"], payload)
    return 0


# --------------------------------------------------------------------------
# info


def _side_info(a: GameAnalysis) -> dict[str, Any]:
    return {
        "perfect_recall": a.perfect_recall,
        "action_recall": a.action_recall,
        "public_states": len(a.public_states),
        "timeability_width": a.k,
        "recall_horizon": a.kappa,
    }


def _sizes(st: BuildStats) -> dict[str, Any]:
    """The DAG-size record ``info`` and ``build`` share."""
    return {
        "dec": st.n_dec,
        "obs": st.n_obs,
        "edges": st.n_edges,
        "max_belief": st.max_belief,
        "max_fanout": st.max_fanout,
    }


def _size_text(sizes: dict[str, Any]) -> str:
    """The size phrase of a ``_sizes`` record or of ``build --count``'s counts."""
    return (
        f"{sizes['dec']} decision / {sizes['obs']} observation points, "
        f"{sizes['edges']} edges"
    )


def cmd_info(args: argparse.Namespace) -> int:
    g, label, payload = _start(args)
    payload.update(_game_summary(g), sides={})
    # Text is printed as it comes, so the analysis shows before the DAG
    # is built; under --json only the final payload is printed.
    say = (lambda line: None) if args.json else print
    analyses = {side: analyze(g, side) for side in (MAX, MIN)}
    for line in _summary_lines(label, g):
        say(line)
    for side in (MAX, MIN):
        info = payload["sides"][side] = _side_info(analyses[side])
        say(
            f"side {side}: perfect-recall={_yn(info['perfect_recall'])} "
            f"action-recall={_yn(info['action_recall'])} "
            f"public-states={info['public_states']} "
            f"k={info['timeability_width']} kappa={info['recall_horizon']}"
        )
    # The observation-split decision DAG gives the prescription fan-out
    # numbers; it is built under the edge budget.
    code = 0
    try:
        for side in (MAX, MIN):
            dag = build_tbdag(
                g, side, split="observation", analysis=analyses[side], edge_budget=args.budget
            )
            st = dag.stats
            payload["sides"][side]["dag"] = sizes = {
                **_sizes(st),
                "max_fanout_belief": list(st.max_fanout_belief),
                "prescription_bound": st.prescription_bound,
            }
            say(
                f"side {side} dag: {_size_text(sizes)}; max fan-out {st.max_fanout} "
                f"at a belief of {len(st.max_fanout_belief)} nodes "
                f"{sizes['max_fanout_belief']}; prescription bound "
                f"{st.prescription_bound}"
            )
    except BudgetExceededError as exc:
        payload["budget_error"] = str(exc)
        say(f"dag construction aborted: {exc}")
        code = 2
    _emit(args, (), payload)
    return code


# --------------------------------------------------------------------------
# build


def cmd_build(args: argparse.Namespace) -> int:
    if args.count and args.dump_dag:
        raise GameValidationError("--count builds no DAG for --dump-dag to write")
    g, label, payload = _start(args)
    if args.binarize:
        g = binarize_actions(g)
    split = _SPLIT_ALIASES[args.split]
    sides = (MAX, MIN) if args.side == "both" else (args.side,)
    payload.update(split=split, sides={})
    lines: list[str] = []
    for side in sides:
        if args.count:
            t0 = time.perf_counter()
            counts = count_tbdag(g, side, split=split, edge_budget=args.budget)
            sizes = dict(zip(("dec", "obs", "edges"), counts))
            payload["sides"][side] = {**sizes, "count_ms": (time.perf_counter() - t0) * 1e3}
            lines.append(f"side {side} ({split}, counted): {_size_text(sizes)}")
            continue
        dag = build_tbdag(g, side, split=split, reduce=not args.no_reduce, edge_budget=args.budget)
        st = dag.stats
        bounds = check_size_bounds(dag)
        payload["sides"][side] = detail = {
            **_sizes(st),
            "dedup_hits": st.dedup_hits,
            "edge_bound": bounds["bound"],
            "bound_slack": bounds["slack"],
            "phase_ms": st.phase_ms,
        }
        lines.append(
            f"side {side} ({split}{'' if dag.reduced else ', unreduced'}): "
            f"{_size_text(detail)}; max belief {st.max_belief}, max fan-out "
            f"{st.max_fanout}; edge bound {bounds['bound']:.0f} "
            f"(slack {bounds['slack']:.3g})"
        )
        if args.dump_dag:
            path = args.dump_dag
            if len(sides) > 1:
                stem, ext = os.path.splitext(path)
                path = f"{stem}.{side}{ext or '.json'}"
            doc = tbdag_to_doc(dag)
            doc["manifest"] = payload["manifest"]
            _write_json(path, doc)
            lines.append(f"wrote {path}")
            detail["out"] = path
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# belief-game


def cmd_belief_game(args: argparse.Namespace) -> int:
    g, label, payload = _start(args)
    t0 = time.perf_counter()
    bg = make_belief_game(g, compact=args.compact, node_budget=args.budget)
    build_ms = (time.perf_counter() - t0) * 1e3
    b = bg.game
    payload.update({
        "compact": bg.compact,
        "source_nodes": g.num_nodes,
        "nodes": b.num_nodes,
        "terminals": len(b.terminals),
        "infosets": {
            "max": len(b.side_infosets(MAX)),
            "min": len(b.side_infosets(MIN)),
        },
        "depth": b.max_depth,
        "build_ms": build_ms,
        "phase_ms": bg.phase_ms,
    })
    lines = [
        f"belief game of {label}{' (compact)' if bg.compact else ''}: "
        f"{b.num_nodes} nodes from {g.num_nodes}, {len(b.terminals)} terminals, "
        f"depth {b.max_depth}",
        f"coordinator infosets: max {payload['infosets']['max']}, "
        f"min {payload['infosets']['min']}",
    ]
    if args.out:
        doc = belief_game_to_doc(bg)
        doc["manifest"] = payload["manifest"]
        _write_json(args.out, doc)
        payload["out"] = args.out
        lines.append(f"wrote {args.out}")
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    g, label, payload = _start(args)
    config = SolveConfig(
        algorithm=args.algo,
        eps=args.eps,
        max_iters=args.max_iters,
        log_every=args.log_every,
        mode=args.mode,
    )
    t0 = time.perf_counter()
    rep = solve(g, config)
    wall = time.perf_counter() - t0
    manifest = payload["manifest"]
    last = rep.log[-1]
    payload.update({
        "algorithm": config.algorithm,
        "mode": config.mode,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "value": rep.value,
        "gap": rep.gap,
        "br_max": last.br_max,
        "br_min": last.br_min,
        "wall_s": wall,
        "phase_ms": rep.phase_ms,
        "log": [dict(zip(CSV_COLUMNS, astuple(p))) for p in rep.log],
    })
    lines = [
        f"{config.algorithm} on {label} ({config.mode}): "
        f"{'converged' if rep.converged else 'stopped'} after "
        f"{rep.iterations} iterations in {wall:.3f}s",
        f"value {rep.value:.9g}  gap {rep.gap:.3g}  "
        f"(best responses: max {last.br_max:.9g}, min {last.br_min:.9g})",
    ]
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
            fh.write(rep.csv())
        payload["log_file"] = args.log
        lines.append(f"wrote {args.log}")
    if args.save_avg:
        strategies = []
        for side, real in ((MAX, rep.x_realization), (MIN, rep.y_realization)):
            entry = {"side": side, "terminal_realization": {str(z): p for z, p in sorted(real.items())}}
            if args.behavior:
                entry["behavior"] = rep.behavior(side)
            strategies.append(entry)
        _write_json(args.save_avg, {
            "manifest": manifest,
            "game": label,
            "value": rep.value,
            "gap": rep.gap,
            "strategies": strategies,
        })
        payload["avg_file"] = args.save_avg
        lines.append(f"wrote {args.save_avg}")
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# oracle-check


def _load_realizations(path: str, g: ExtensiveFormGame) -> dict[str, dict[int, float]]:
    """Per-side terminal realizations from a ``solve --save-avg`` file: one
    entry per side, keys terminal ids of ``g`` as ``str(z)`` writes them
    and values numbers, and each side's realization must pass
    :func:`check_realization` against ``g``."""
    doc = _read_json(path)
    entries = doc.get("strategies", []) if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise GameValidationError(f"{path}: malformed strategies list")
    terminal_of = {str(z): z for z in g.terminals}
    out: dict[str, dict[int, float]] = {}
    for entry in entries:
        side = entry.get("side")
        real = entry.get("terminal_realization")
        if side not in (MAX, MIN) or not isinstance(real, dict):
            raise GameValidationError(f"{path}: malformed strategies entry")
        if side in out:
            raise GameValidationError(f"{path}: need one strategy per side")
        for z in real:
            if z not in terminal_of:
                raise GameValidationError(f"{path}: {side} realization key {z!r} names no terminal")
        real = {terminal_of[z]: p for z, p in real.items()}
        try:
            check_realization(g, real)
        except GameValidationError as exc:
            raise GameValidationError(f"{path}: {side} {exc}") from None
        out[side] = {z: float(p) for z, p in real.items()}
    if set(out) != {MAX, MIN}:
        raise GameValidationError(f"{path}: need one strategy per side")
    return out


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise GameValidationError("tol must be finite and non-negative")
    g, label, payload = _start(args)
    reals = _load_realizations(args.avg, g)
    payload.update(tolerance=args.tol, sides={})
    lines: list[str] = []
    ok = True
    for side, opp in ((MAX, MIN), (MIN, MAX)):
        t0 = time.perf_counter()
        dag = build_tbdag(g, side, split="observation")
        dag_value, _ = best_response(dag.problem, payoffs_from_realization(dag, reals[opp]))
        t1 = time.perf_counter()
        oracle_value, _ = enumeration_oracle(g, side, reals[opp], budget=args.budget)
        t2 = time.perf_counter()
        diff = abs(dag_value - oracle_value)
        side_ok = diff <= args.tol
        ok = ok and side_ok
        payload["sides"][side] = {
            "dag_best_response": dag_value,
            "oracle_best_response": oracle_value,
            "abs_diff": diff,
            "ok": side_ok,
            "dag_ms": (t1 - t0) * 1e3,
            "oracle_ms": (t2 - t1) * 1e3,
        }
        lines.append(
            f"side {side}: dag best response {dag_value:.12g}, enumeration "
            f"oracle {oracle_value:.12g}, |diff| {diff:.3g} "
            f"({'ok' if side_ok else 'MISMATCH'})"
        )
    payload["ok"] = ok
    lines.append("oracle check passed" if ok else "oracle check FAILED")
    _emit(args, lines, payload)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# bench


_BENCH_COLUMNS = (
    "game",
    "nodes",
    "terminals",
    "dec_max",
    "obs_max",
    "dec_min",
    "obs_min",
    "init_ms",
    "iters",
    "converged",
    "solve_ms",
    "value",
    "gap",
)


def cmd_bench(args: argparse.Namespace) -> int:
    names = [t.strip() for t in args.games.split(",") if t.strip()]
    if not names:
        raise GameValidationError("--games is empty")
    rows: list[dict[str, Any]] = []
    for name in names:
        g, label, _ = _resolve_game(name)
        config = SolveConfig(
            algorithm=args.algo, eps=args.eps, max_iters=args.max_iters
        )
        t0 = time.perf_counter()
        rep = solve(g, config)
        solve_ms = (time.perf_counter() - t0) * 1000.0
        dag_max, dag_min = rep.dags[MAX], rep.dags[MIN]
        rows.append(
            {
                "game": label,
                "nodes": g.num_nodes,
                "terminals": len(g.terminals),
                "dec_max": dag_max.stats.n_dec,
                "obs_max": dag_max.stats.n_obs,
                "dec_min": dag_min.stats.n_dec,
                "obs_min": dag_min.stats.n_obs,
                "init_ms": f"{rep.phase_ms['build']:.3f}",
                "iters": rep.iterations,
                "converged": int(rep.converged),
                "solve_ms": f"{solve_ms:.3f}",
                "value": f"{rep.value:.9g}",
                "gap": f"{rep.gap:.3g}",
            }
        )
    payload: dict[str, Any] = {"manifest": _manifest(args), "rows": rows}
    lines = ["# " + json.dumps(payload["manifest"], sort_keys=True), ",".join(_BENCH_COLUMNS)]
    lines += [",".join(str(row[c]) for c in _BENCH_COLUMNS) for row in rows]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        payload["out"] = args.out
        lines = [f"benchmarked {len(rows)} games", f"wrote {args.out}"]
    _emit(args, lines, payload)
    return 0


# --------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like any bad input: 2 means a budget abort."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_budget(p: argparse.ArgumentParser, default: int, what: str) -> None:
    """The one ``--budget`` flag: integral values (``1e5`` too) come as
    int, so abort messages print ``100000``; ``inf`` means no limit."""

    def budget(text: str) -> int | float:
        value = float(text)
        return int(value) if value.is_integer() else value

    p.add_argument("--budget", type=budget, default=default, help=what)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one JSON object instead of text"
    )
    parser = _Parser(
        prog="tbdag",
        description="Team-belief decision DAGs for adversarial team games.",
    )
    parser.add_argument("--version", action="version", version=f"tbdag {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a game into JSON")
    p.add_argument("target", help="preset name or family (kuhn, leduc, liars-dice, fig2, fig8, fig9, worst-case)")
    p.add_argument("-n", type=int, default=None, help="number of non-chance players")
    p.add_argument("-r", type=int, default=None, help="ranks in the deck")
    p.add_argument("--bets", type=int, default=None, help="bet sizes per round")
    p.add_argument("--suits", type=int, default=None, help="suits in the deck")
    p.add_argument("--faces", type=int, default=None, help="die faces")
    p.add_argument("-k", type=int, default=None, help="timeability width parameter")
    p.add_argument("-b", type=int, default=None, help="branching parameter")
    p.add_argument("-d", type=int, default=None, help="depth parameter")
    p.add_argument("-c", type=int, default=None, help="column count")
    p.add_argument("--team-min", default=None, help="comma list of min-team players")
    p.add_argument("--team-max", default=None, help="comma list of max-team players (complement needs -n)")
    p.add_argument("-o", "--out", default=None, help="output path (default <target>.json)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("info", parents=[common], help="recall analysis and DAG fan-out report")
    p.add_argument("game", help="game JSON file or preset name")
    _add_budget(p, 10**8, "edge budget for the fan-out report")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("build", parents=[common], help="build team-belief decision DAGs")
    p.add_argument("game", help="game JSON file or preset name")
    p.add_argument("--side", choices=("max", "min", "both"), default="both")
    p.add_argument("--split", choices=sorted(_SPLIT_ALIASES), default="observation")
    p.add_argument("--no-reduce", action="store_true", help="keep unreachable and dominated structure")
    p.add_argument("--binarize", action="store_true", help="binarize actions first")
    p.add_argument("--count", action="store_true", help="count sizes without materializing")
    _add_budget(p, 10**8, "edge budget")
    p.add_argument("--dump-dag", default=None, help="write the packed DAG to this JSON path")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("belief-game", parents=[common], help="materialize the coordinator belief game")
    p.add_argument("game", help="game JSON file or preset name")
    p.add_argument("--compact", action="store_true", help="splice out single-action steps")
    _add_budget(p, 10**7, "node budget")
    p.add_argument("-o", "--out", default=None, help="write the belief game to this JSON path")
    p.set_defaults(func=cmd_belief_game)

    p = sub.add_parser("solve", parents=[common], help="run a regret-matching solver to a gap target")
    p.add_argument("game", help="game JSON file or preset name")
    p.add_argument("--algo", choices=tuple(ALGORITHMS), default="pcfr+")
    p.add_argument("--eps", type=float, default=1e-3, help="target equilibrium gap")
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--log-every", type=int, default=50)
    p.add_argument("--mode", choices=MODES, default="simultaneous")
    p.add_argument("--log", default=None, help="write the iteration log CSV here")
    p.add_argument("--save-avg", default=None, help="write averaged strategies JSON here")
    p.add_argument("--behavior", action="store_true", help="include behavioral strategies in --save-avg")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle-check", parents=[common], help="certify averaged strategies against the enumeration oracle")
    p.add_argument("game", help="game JSON file or preset name")
    p.add_argument("--avg", required=True, help="averaged-strategies JSON from solve --save-avg")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_budget(p, 10**7, "reduced pure-strategy budget")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("bench", parents=[common], help="sweep a suite of games into a CSV")
    p.add_argument("--games", default="fig2,fig8,worst-k1b2d5,2K3,3K3[1],3K3[1,2]")
    p.add_argument("--algo", choices=tuple(ALGORITHMS), default="pcfr+")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=20_000)
    p.add_argument("-o", "--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # The library entry points check their budgets too; checking the
        # flag here rejects it before any work is done.
        if getattr(args, "budget", None) is not None:
            check_budget("--budget", args.budget)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Send what is buffered to devnull, or the flush at exit raises.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    # Subclasses first: a budget abort exits 2, a closed stdout is quiet.
    except (GameValidationError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
