"""Byte-identity pins for every game the library assembles.

Each pin is the SHA-256 of a canonical JSON dump (sorted keys) of one
output: a serialized zoo game, a rewritten game, or a belief game with
its strategy-map tables.  A construction that errors is pinned by its
message instead.  Re-record with ``PYTHONPATH=src python3
tests/test_output_pins.py --record`` only when an output is meant to
change.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import tbdag.belief
from tbdag import (
    MAX,
    MIN,
    GameValidationError,
    belief_game_to_doc,
    binarize_actions,
    generate,
    inflate,
    list_presets,
    make_belief_game,
    serialize_game,
)

sys.path.insert(0, str(Path(__file__).parent))
from test_acceptance import SMALL_ZOO  # noqa: E402

PINS_PATH = Path(__file__).parent / "output_pins.json"

ZOO = (*SMALL_ZOO, "3L122[1]", "3L122[3]")
REWRITE = ("fig2", "2K3", "3K3[1]")
BELIEF = ("fig2", "fig9-C8", "2K3", "3K3[1]", "worst-k1b2d5")


@lru_cache(maxsize=None)
def game(name):
    return generate(list_presets()[name])


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _game_digest(g) -> str:
    return _digest(serialize_game(g))


def _or_error(make):
    try:
        return make()
    except GameValidationError as exc:
        return f"error: {exc}"


def _belief_digest(name: str, compact: bool) -> str:
    def make():
        bg = make_belief_game(game(name), compact=compact)
        return _digest({
            "doc": belief_game_to_doc(bg),
            "iset_beliefs": sorted(bg.iset_beliefs.items()),
            "iset_infosets": sorted(bg.iset_infosets.items()),
            "root_iset": bg.root_iset,
            "successors": sorted(
                [list(key), list(nxt)] for key, nxt in bg.successors.items()
            ),
        })

    return _or_error(make)


def pin_cases():
    """Every pinned output as ``(key, thunk)`` pairs."""
    cases = [(f"zoo/{name}", lambda n=name: _game_digest(game(n)))
             for name in ZOO]
    for name in REWRITE:
        cases.append((
            f"binarize/{name}",
            lambda n=name: _or_error(
                lambda: _game_digest(binarize_actions(game(n)))
            ),
        ))
        for side in (MAX, MIN):
            cases.append((
                f"inflate/{name}/{side}",
                lambda n=name, s=side: _game_digest(inflate(game(n), s)),
            ))
    for name in BELIEF:
        for compact in (False, True):
            cases.append((
                f"belief/{name}/{'compact' if compact else 'full'}",
                lambda n=name, c=compact: _belief_digest(n, c),
            ))
    return cases


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def test_every_case_is_pinned():
    assert sorted(key for key, _ in pin_cases()) == sorted(PINS)


@pytest.mark.parametrize("key,make", pin_cases(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_output_pinned(key, make):
    assert make() == PINS[key]


@pytest.mark.parametrize("name", ["fig2", "3K3[1]"])
def test_belief_game_splits_no_candidates_itself(monkeypatch, name):
    # Every next belief comes from the raw TB-DAGs, so the belief module
    # never needs its own observation split.
    def split(*args, **kwargs):
        raise AssertionError("tbdag.belief called split_observation")

    monkeypatch.setattr(tbdag.belief, "split_observation", split)
    for compact in (False, True):
        key = f"belief/{name}/{'compact' if compact else 'full'}"
        assert _belief_digest(name, compact) == PINS[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_output_pins.py --record")
    pins = {key: make() for key, make in pin_cases()}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pins)} pins in {PINS_PATH}")
