"""The three workloads: their data, their operations and the seeded inputs.

An operation is a plain dict, so the same description drives a
`weylzip` CLI process (untraced runs) and the traced worker's library
calls (traced runs).  Data are dicts {"type", "I", "J", "psi"} with psi a
list of [i, psi(i)] pairs.
"""

from __future__ import annotations

import json
import random

from reference import Reference

WORKLOADS = ("dense-ladder", "large-ladder", "classify-stream")

#: Groups up to this order are the dense-ladder region: weylzip builds the
#: dense Bruhat matrix there, so the traced worker times elements() and
#: the first bruhat_leq separately.
DENSE_ORDER = 10_000

#: Classify-stream queries per length and datum; each pass asks
#: QUERIES_PER_LENGTH * (|Phi+| + 1) queries of each datum.
QUERIES_PER_LENGTH = 3


def datum(label: str, I, psi: dict[int, int]) -> dict:
    return {
        "type": label,
        "I": sorted(I),
        "J": sorted(psi[i] for i in I),
        "psi": sorted([i, psi[i]] for i in I),
    }


def identity_datum(label: str, I) -> dict:
    return datum(label, I, {i: i for i in I})


LADDER = [
    identity_datum("A3", [1]),
    identity_datum("B3", [1, 2]),
    identity_datum("F4", [1, 2]),
    identity_datum("D5", [1, 2, 3]),
    identity_datum("A6", [1, 2, 3]),
]
A6 = LADDER[-1]
F4_TWISTED = datum("F4", [1, 2], {1: 4, 2: 3})
#: 576 parameters: hasse_poset counts the parameters strictly between two
#: others in uint8, so this poset reports redundant cover edges on every
#: run.  It is the one operation kept although it fails (see FOUND in
#: CHANGES.md); the other posets stay below 256 parameters.
F4_WIDE = identity_datum("F4", [1])
D6 = identity_datum("D6", [1, 2, 3, 4, 5])
E8_SHIFT = datum("E8", [1, 3, 4, 5], {1: 3, 3: 4, 4: 5, 5: 6})
E7_REVERSAL = datum("E7", [1, 3, 4, 5, 6], {1: 6, 3: 5, 4: 4, 5: 3, 6: 1})

#: A6 with phi_bar the diagram flip, delta = id, x = e: J = {4,5,6} and
#: psi(i) = 7 - i, read in the orbitally-finite (Frobenius) mode.
A6_ISOGENY = {"type": "A6", "phi_bar": "flip", "delta": "id", "I": [1, 2, 3],
              "x": "e", "frobenius": True}
#: A5 with Omega = Omega_I = <flip>, I = J = {1,5}, psi = id, psi_hat(flip) = flip.
A5_FLIP = [6 - i for i in range(1, 6)]
A5_EXTENDED = {"type": "A5", "I": [1, 5], "J": [1, 5], "psi": {"1": 1, "5": 5},
               "omega_gens": ["flip"], "omega_I_gens": ["flip"],
               "psi_hat": {json.dumps(A5_FLIP): "flip"}}


def psi_map(d: dict) -> dict[int, int]:
    return {int(a): int(b) for a, b in d["psi"]}


def word_text(word) -> str:
    return ",".join(str(i) for i in word) if word else "e"


def _mid_length_param(rng, d: dict, side: str) -> list[int]:
    """A seeded parameter of the middle length(s) of its parameter set."""
    ref = Reference(d["type"])
    subset = d["I"] if side == "iw" else d["J"]
    top = ref.nplus - ref.nplus_of(subset)
    length = rng.choice(sorted({top // 2, (top + 1) // 2}))
    return ref.random_word(rng, length, subset, side)


def _top_param(d: dict) -> list[int]:
    """The longest minimal left coset representative (unique)."""
    ref = Reference(d["type"])
    top = ref.nplus - ref.nplus_of(d["I"])
    return ref.random_word(random.Random(0), top, d["I"], "iw")


def ladder_ops(workload: str, seed: int) -> list[dict]:
    rng = random.Random(seed)
    if workload == "large-ladder":
        return [
            {"cmd": "pieces", "datum": D6},
            {"cmd": "poset", "datum": D6, "side": "iw", "format": "json"},
        ]
    ops = []
    for d in LADDER:
        ops.append({"cmd": "pieces", "datum": d})
        ops.append({"cmd": "poset", "datum": d, "side": "iw", "format": "json"})
    ops.append({"cmd": "poset", "datum": F4_TWISTED, "side": "wj", "format": "dot"})
    ops.append({"cmd": "closure", "datum": A6, "side": "iw",
                "w": _mid_length_param(rng, A6, "iw")})
    ops.append({"cmd": "closure", "datum": F4_TWISTED, "side": "wj",
                "w": _mid_length_param(rng, F4_TWISTED, "wj")})
    ops.append({"cmd": "isogeny", "doc": A6_ISOGENY})
    ext_base = identity_datum("A5", [1, 5])
    ops.append({"cmd": "nonconnected", "doc": A5_EXTENDED, "base": ext_base,
                "omega": [list(range(1, 6)), A5_FLIP],
                "w": _top_param(ext_base)})
    ops.append({"cmd": "poset", "datum": F4_WIDE, "side": "iw", "format": "json",
                "known_fault": "cover edges from a uint8 product that wraps at 256"})
    return ops


def classify_plan(seed: int) -> dict:
    """Seeded queries: for each datum and each length 0..|Phi+|, a few
    elements built by length-increasing products of simple reflections.
    For the checks each query also carries a seeded y in W_I (twisted
    conjugation) and a seeded minimal left coset representative, which
    must be its own canonical representative."""
    rng = random.Random(seed)
    data = [E8_SHIFT, E7_REVERSAL]
    queries = []
    for k, d in enumerate(data):
        ref = Reference(d["type"])
        top_I = ref.nplus_of(d["I"])
        for length in range(ref.nplus + 1):
            for _ in range(QUERIES_PER_LENGTH):
                w = ref.random_word(rng, length)
                y = [rng.choice(d["I"]) for _ in range(rng.randint(0, top_I))]
                p = ref.random_word(rng, rng.randint(0, ref.nplus - top_I), d["I"], "iw")
                queries.append({"datum": k, "w": w, "y": y, "param": p})
    return {"data": data, "queries": queries}


def twisted_word(d: dict, w, y) -> list[int]:
    """A word for y w psi(y)^-1."""
    psi = psi_map(d)
    return list(y) + list(w) + [psi[i] for i in reversed(y)]


def cli_args(op: dict) -> tuple[list[str], str | None]:
    """The weylzip command line and standard input for one operation."""
    cmd = op["cmd"]
    if cmd in ("isogeny", "nonconnected"):
        args = [cmd, "--datum", "-"]
        if cmd == "nonconnected":
            args += ["--closure-of", word_text(op["w"])]
        return args, json.dumps(op["doc"])
    d = op["datum"]
    args = [cmd, "--type", d["type"],
            "--I", ",".join(map(str, d["I"])),
            "--J", ",".join(map(str, d["J"])),
            "--psi", ",".join(f"{a}:{b}" for a, b in d["psi"])]
    if cmd == "pieces":
        args += ["--format", "jsonl"]
    elif cmd == "poset":
        args += ["--side", op["side"], "--format", op["format"]]
    elif cmd == "closure":
        args += ["--side", op["side"], "--w", word_text(op["w"])]
    return args, None


def setup_specs(workload: str) -> dict:
    """What a fresh process builds to be ready for the workload."""
    if workload == "classify-stream":
        return {"data": [E8_SHIFT, E7_REVERSAL], "isogeny": [], "extended": []}
    if workload == "large-ladder":
        return {"data": [D6], "isogeny": [], "extended": []}
    return {"data": LADDER + [F4_TWISTED], "isogeny": [A6_ISOGENY],
            "extended": [A5_EXTENDED]}
