"""Checks of weylzip's outputs against values computed apart from it
(reference.py) and against properties the mathematics forces.

Every checker appends human-readable failures to a list and returns
nothing; an empty list means the output passed.  Parsers turn the CLI
text formats into rows; the traced worker prints the same formats, so
both kinds of run share these checks.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import lru_cache

from reference import Reference
from workloads import psi_map, word_text

MAX_REPORTED = 20


@lru_cache(maxsize=None)
def ref_for(label: str) -> Reference:
    return Reference(label)


def parse_word(text: str) -> list[int]:
    text = text.strip()
    return [] if text in ("", "e") else [int(t) for t in text.split(",")]


def parse_subset(text: str) -> set[int]:
    text = text.strip().strip("{}")
    return {int(t) for t in text.split(",")} if text else set()


# -- parsers of the CLI formats ----------------------------------------------

def parse_pieces_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse_poset_json(text: str) -> tuple[list[dict], list[tuple[int, int]]]:
    doc = json.loads(text)
    return doc["nodes"], [tuple(e) for e in doc["cover_edges"]]


_DOT_NODE = re.compile(r'^\s*n(\d+) \[label="([^"\\]*)\\nl=(\d+) dim=(\d+)"\];$')
_DOT_EDGE = re.compile(r"^\s*n(\d+) -> n(\d+);$")


def parse_poset_dot(text: str) -> tuple[list[dict], list[tuple[int, int]]]:
    nodes, edges = [], []
    lines = text.splitlines()
    if not lines or lines[0] != "digraph closure {" or lines[-1] != "}":
        raise ValueError("not a closure digraph")
    for line in lines[1:-1]:
        m = _DOT_NODE.match(line)
        if m:
            if int(m.group(1)) != len(nodes):
                raise ValueError(f"node out of order: {line!r}")
            nodes.append({"word": m.group(2), "length": int(m.group(3)), "dim": int(m.group(4))})
            continue
        m = _DOT_EDGE.match(line)
        if not m:
            raise ValueError(f"unexpected DOT line {line!r}")
        edges.append((int(m.group(1)), int(m.group(2))))
    return nodes, edges


_ISO_ROW = re.compile(r"^\s*(\S+)\s+l=(\d+)\s+dim=(\d+)\s+infstab=(\d+)\s+K=(\{[0-9,]*\})$")


def parse_isogeny(text: str) -> dict:
    lines = text.splitlines()
    m = re.match(r"^built I=(\{[0-9,]*\}) J=(\{[0-9,]*\}) psi=(\S*) x=(\S+)$", lines[0])
    h = re.match(r"^orbit representatives \((\d+) pieces, dim G = (\d+)\)$", lines[1])
    if not (m and h):
        raise ValueError("unexpected isogeny header")
    cut = lines.index("closure cover edges:")
    rows = []
    for line in lines[2:cut]:
        r = _ISO_ROW.match(line)
        if not r:
            raise ValueError(f"unexpected isogeny row {line!r}")
        rows.append({"word": r.group(1), "length": int(r.group(2)), "dim": int(r.group(3)),
                     "inf_stab_dim": int(r.group(4)), "K": sorted(parse_subset(r.group(5)))})
    index = {row["word"]: k for k, row in enumerate(rows)}
    edges = []
    for line in lines[cut + 1:]:
        a, arrow, b = line.split()
        if arrow != "->":
            raise ValueError(f"unexpected edge line {line!r}")
        edges.append((index[a], index[b]))
    psi = dict(tuple(int(x) for x in pair.split(":")) for pair in m.group(3).split(",") if pair)
    return {"I": parse_subset(m.group(1)), "J": parse_subset(m.group(2)), "psi": psi,
            "x": m.group(4), "pieces": int(h.group(1)), "dim_G": int(h.group(2)),
            "rows": rows, "edges": edges}


def parse_extended(text: str) -> tuple[list[int], tuple[int, ...] | None]:
    word, _, omega = text.partition("|")
    return parse_word(word), tuple(int(t) for t in omega.split(",")) if omega else None


def parse_nonconnected(text: str) -> dict:
    lines = text.splitlines()
    m = re.match(r"^omega (\d+)  omega_I (\d+)  pieces (\d+)$", lines[0])
    if not m:
        raise ValueError("unexpected nonconnected header")
    orbits, closure = [], []
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "orbit":
            orbits.append([parse_extended(t) for t in rest.split()])
        elif kind == "closure":
            closure.append(parse_extended(rest))
        else:
            raise ValueError(f"unexpected nonconnected line {line!r}")
    return {"omega": int(m.group(1)), "omega_I": int(m.group(2)), "pieces": int(m.group(3)),
            "orbits": orbits, "closure": closure}


# -- checkers ----------------------------------------------------------------

def check_params(ref: Reference, words, lengths, subset, side: str, where: str,
                 fails: list) -> list:
    """Rows of a parameter set: reduced words of the stated length, minimal
    on the given side, pairwise distinct, with the length histogram of
    W(q) / W_subset(q).  Returns the elements."""
    subset = set(subset)
    elems, keys = [], set()
    for word, length in zip(words, lengths):
        p = ref.elem(word)
        elems.append(p)
        if ref.length(p) != len(word) or length != len(word):
            fails.append(f"{where}: {word_text(word)} is not reduced of length {length}")
        desc = ref.left_descents(p) if side == "iw" else ref.right_descents(p)
        if desc & subset:
            fails.append(f"{where}: {word_text(word)} has a descent in {sorted(subset)} on side {side}")
        keys.add(ref.key(p))
    if len(keys) != len(elems):
        fails.append(f"{where}: {len(elems) - len(keys)} repeated parameters")
    want = ref.param_histogram(subset)
    got = Counter(lengths)
    if [got.get(k, 0) for k in range(len(want))] != want or max(got, default=0) >= len(want):
        fails.append(f"{where}: {len(elems)} rows with length histogram "
                     f"{[got.get(k, 0) for k in range(max(got, default=0) + 1)]}, expected {want}")
    return elems


def check_dims(ref: Reference, I, rows, where: str, fails: list) -> None:
    """dim = rank + |Phi+| + |Phi_I+| + l(w), and the top piece is dense."""
    for row in rows:
        want = ref.piece_dim(I, row["length"])
        if row["dim"] != want:
            fails.append(f"{where}: {row['word']} has dim {row['dim']}, expected {want}")
    top = max(rows, key=lambda r: r["length"])
    if top["dim"] != ref.top_dim():
        fails.append(f"{where}: top piece has dim {top['dim']}, expected {ref.top_dim()}")


def check_pieces_rows(ref: Reference, d: dict, rows, where: str, fails: list,
                      with_sigma: bool = True) -> list:
    """Rows of `pieces` (and of the isogeny report): parameters, dimensions,
    K_w against a subset sweep, inf_stab_dim from the double-coset part,
    and the sigma column."""
    I, J, psi = set(d["I"]), set(d["J"]), psi_map(d)
    words = [parse_word(r["word"]) for r in rows]
    elems = check_params(ref, words, [r["length"] for r in rows], I, "iw", where, fails)
    check_dims(ref, I, rows, where, fails)
    deficit = ref.nplus - ref.nplus_of(J)
    for row, p in zip(rows, elems):
        k = ref.stable_subset(p, I, psi)
        if set(row["K"]) != k:
            fails.append(f"{where}: K of {row['word']} is {row['K']}, the sweep gives {sorted(k)}")
        x = ref.double_coset_min(p, I, J)
        if row["inf_stab_dim"] != deficit - ref.length(x):
            fails.append(f"{where}: inf_stab_dim of {row['word']} is {row['inf_stab_dim']}, "
                         f"expected {deficit - ref.length(x)}")
    if with_sigma:
        check_sigma_column(ref, d, rows, elems, where, fails)
    return elems


def check_sigma_column(ref: Reference, d: dict, rows, elems, where: str, fails: list) -> None:
    """sigma is a length-preserving bijection onto the parameters that are
    right-minimal for J, inside the double coset W_I w W_J."""
    I, J = set(d["I"]), set(d["J"])
    sig_words = [parse_word(r["sigma"]) for r in rows]
    sig = check_params(ref, sig_words, [r["length"] for r in rows], J, "wj",
                       where + " sigma", fails)
    for row, p, s in zip(rows, elems, sig):
        if ref.key(ref.double_coset_min(p, I, J)) != ref.key(ref.double_coset_min(s, I, J)):
            fails.append(f"{where}: sigma({row['word']}) = {row['sigma']} leaves W_I w W_J")


def check_order_edges(lengths, edges, where: str, fails: list) -> list[int]:
    """Cover edges of a graded poset with a unique minimum and maximum:
    every edge raises length and none is implied by a longer path.
    Returns, per node, the bitmask of the nodes strictly below it."""
    n = len(lengths)
    preds: list[list[int]] = [[] for _ in range(n)]
    has_succ = [False] * n
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            fails.append(f"{where}: edge ({a},{b}) names a missing node")
            return [0] * n
        if lengths[a] >= lengths[b]:
            fails.append(f"{where}: edge {a}->{b} does not raise length "
                         f"({lengths[a]} -> {lengths[b]})")
        preds[b].append(a)
        has_succ[a] = True
    if len(set(edges)) != len(edges):
        fails.append(f"{where}: repeated cover edges")
    below = [0] * n
    for b in sorted(range(n), key=lambda k: lengths[k]):
        for a in preds[b]:
            below[b] |= below[a] | (1 << a)
    redundant = [
        (a, b) for b in range(n) for a in preds[b]
        if any(c != a and below[c] >> a & 1 for c in preds[b])
    ]
    if redundant:
        fails.append(f"{where}: {len(redundant)} of {len(edges)} cover edges are implied "
                     f"by longer paths, e.g. {redundant[:3]}")
    minima = [k for k in range(n) if not preds[k]]
    maxima = [k for k in range(n) if not has_succ[k]]
    if len(minima) != 1 or lengths[minima[0]] != 0:
        fails.append(f"{where}: minimal nodes {minima[:5]}, expected e alone")
    if len(maxima) != 1 or lengths[maxima[0]] != max(lengths):
        fails.append(f"{where}: maximal nodes {maxima[:5]}, expected one top node")
    return below


def check_poset(ref: Reference, d: dict, side: str, nodes, edges, where: str,
                fails: list) -> dict:
    """Nodes of a poset output are the parameter set of the side, with the
    piece dimensions; edges form its transitive reduction."""
    subset = d["I"] if side == "iw" else d["J"]
    words = [parse_word(nd["word"]) for nd in nodes]
    lengths = [nd["length"] for nd in nodes]
    elems = check_params(ref, words, lengths, subset, side, where, fails)
    check_dims(ref, d["I"], nodes, where, fails)
    below = check_order_edges(lengths, edges, where, fails)
    return {"keys": [ref.key(p) for p in elems], "elems": elems, "below": below,
            "words": words}


def check_closure(ref: Reference, d: dict, side: str, target, words, poset, where: str,
                  fails: list) -> None:
    """A closure set: parameters of the side, the target's down-set in the
    poset of the same datum, and every parameter Bruhat-below the target
    (subword oracle) is present."""
    from weylzip import build_group
    from weylzip.oracles import bruhat_subword_oracle

    subset = d["I"] if side == "iw" else d["J"]
    elems = []
    for word in words:
        p = ref.elem(word)
        desc = ref.left_descents(p) if side == "iw" else ref.right_descents(p)
        if ref.length(p) != len(word) or desc & set(subset):
            fails.append(f"{where}: {word_text(word)} is not a reduced parameter")
        elems.append(ref.key(p))
    got = set(elems)
    if len(got) != len(elems):
        fails.append(f"{where}: repeated closure members")
    t = ref.key(ref.elem(target))
    if t not in got or ref.key(ref.identity) not in got:
        fails.append(f"{where}: the closure misses the target or e")
    if poset is None:
        return
    if t not in poset["keys"]:
        fails.append(f"{where}: the target is not a node of the poset")
        return
    k = poset["keys"].index(t)
    down = {poset["keys"][j] for j in range(len(poset["keys"])) if poset["below"][k] >> j & 1}
    down.add(t)
    if got != down:
        fails.append(f"{where}: closure has {len(got)} members, the poset down-set "
                     f"{len(down)} ({len(got - down)} extra, {len(down - got)} missing)")
    g = build_group(d["type"])
    tw = g.from_word(target)
    missing = [
        word for word, key in zip(poset["words"], poset["keys"])
        if key not in got and bruhat_subword_oracle(g.from_word(word), tw)
    ]
    if missing:
        fails.append(f"{where}: {len(missing)} parameters Bruhat-below the target are "
                     f"missing, e.g. {word_text(missing[0])}")


def check_isogeny(ref: Reference, doc: dict, parsed: dict, where: str, fails: list) -> None:
    """The isogeny report for phi_bar = flip, delta = id, x = e: J = flip(I),
    psi = flip on I, then the rows and cover edges of the datum."""
    if doc["phi_bar"] != "flip" or doc["delta"] != "id" or doc["x"] != "e":
        raise ValueError("the isogeny check covers phi_bar = flip, delta = id, x = e")
    n = ref.rank
    psi = {i: n + 1 - i for i in doc["I"]}
    d = {"type": doc["type"], "I": sorted(doc["I"]), "J": sorted(psi.values()),
         "psi": sorted(psi.items())}
    if parsed["I"] != set(d["I"]) or parsed["J"] != set(d["J"]) or parsed["psi"] != psi \
            or parsed["x"] != "e":
        fails.append(f"{where}: built datum I={parsed['I']} J={parsed['J']} "
                     f"psi={parsed['psi']}, expected J={d['J']} psi={psi}")
    if parsed["dim_G"] != ref.top_dim() or parsed["pieces"] != len(parsed["rows"]):
        fails.append(f"{where}: header says {parsed['pieces']} pieces and dim G = "
                     f"{parsed['dim_G']}, expected {len(parsed['rows'])} and {ref.top_dim()}")
    check_pieces_rows(ref, d, parsed["rows"], where, fails, with_sigma=False)
    check_order_edges([r["length"] for r in parsed["rows"]], parsed["edges"], where, fails)


def _apply_automorphism(images, word):
    return [images[i - 1] for i in word]


def _compose(a, b):
    return tuple(a[b[i] - 1] for i in range(len(a)))


def check_nonconnected(ref: Reference, op: dict, parsed: dict, where: str, fails: list) -> None:
    """Extended pieces: the Omega_I-orbits partition the pairs (w, omega)
    with w minimal for I and omega in Omega, each orbit is closed under
    u.(w, omega) = (u(w), u omega psi_hat(u)^-1), and the closure of the
    target holds every pair of the target's component Bruhat-below it."""
    from weylzip import build_group
    from weylzip.oracles import bruhat_subword_oracle

    d = op["base"]
    omega = [tuple(o) for o in op["omega"]]
    ident = tuple(range(1, ref.rank + 1))
    psi_hat = {o: o for o in omega}  # psi_hat(flip) = flip
    if parsed["omega"] != len(omega) or parsed["omega_I"] != len(omega):
        fails.append(f"{where}: header omega {parsed['omega']} omega_I {parsed['omega_I']}")
    members = [m for orb in parsed["orbits"] for m in orb]
    if parsed["pieces"] != len(parsed["orbits"]):
        fails.append(f"{where}: header counts {parsed['pieces']} pieces, "
                     f"{len(parsed['orbits'])} orbits listed")

    def key(word, om):
        return ref.key(ref.elem(word)), om or ident

    for om in omega:
        part = [w for w, o in members if (o or ident) == om]
        check_params(ref, part, [len(w) for w in part], d["I"], "iw",
                     f"{where} omega={om}", fails)
    if len(members) != len(omega) * ref.order // ref.order_of(d["I"]):
        fails.append(f"{where}: {len(members)} extended parameters listed")
    for orb in parsed["orbits"]:
        got = {key(w, o) for w, o in orb}
        w, o = orb[0]
        moved = {key(_apply_automorphism(u, w), _compose(_compose(u, o or ident),
                                                         _inverse(psi_hat[u])))
                 for u in omega}
        if got != moved or len(got) != len(orb):
            fails.append(f"{where}: orbit of {word_text(w)} is not one Omega_I-orbit")
    closure = {key(w, o) for w, o in parsed["closure"]}
    if key(op["w"], None) not in closure:
        fails.append(f"{where}: the closure misses its target")
    g = build_group(d["type"])
    top = g.from_word(op["w"])
    missing = [w for w, o in members if (o or ident) == ident and key(w, o) not in closure
               and bruhat_subword_oracle(g.from_word(w), top)]
    if missing:
        fails.append(f"{where}: {len(missing)} parameters Bruhat-below the target missing")
    if not closure <= {key(w, o) for w, o in members}:
        fails.append(f"{where}: closure members outside the parameter set")


def _inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j - 1] = i + 1
    return tuple(inv)


def check_classify(ref: Reference, d: dict, query: dict, row, where: str, fails: list) -> None:
    """One classify result: the representative is minimal for I, in the
    double coset of the query, a fixed point of canonical_rep and the
    representative of y w psi(y)^-1 and of its sigma image; sigma has its
    length and no right descent in J.  The query's seeded parameter p is
    its own representative, since the pieces are indexed by ^I W."""
    rep_w, sig_w, flags = parse_word(row[0]), parse_word(row[1]), row[2]
    I, J = set(d["I"]), set(d["J"])
    rep, sig = ref.elem(rep_w), ref.elem(sig_w)
    name = f"{where} w={word_text(query['w'])}"
    if ref.length(rep) != len(rep_w) or ref.left_descents(rep) & I:
        fails.append(f"{name}: representative {row[0]} is not minimal in W_I w")
    if ref.length(sig) != len(sig_w) or len(sig_w) != len(rep_w) or ref.right_descents(sig) & J:
        fails.append(f"{name}: sigma {row[1]} is not a right-minimal element of length {len(rep_w)}")
    w = ref.elem(query["w"])
    if ref.key(ref.double_coset_min(w, I, J)) != ref.key(ref.double_coset_min(rep, I, J)):
        fails.append(f"{name}: representative {row[0]} lies in another double coset")
    for ok, what in zip(flags, ("canonical_rep(rep) != rep",
                                "canonical_rep(y w psi(y)^-1) != rep",
                                "canonical_rep(sigma(rep)) != rep",
                                f"canonical_rep(p) != p for p = {word_text(query['param'])}")):
        if not ok:
            fails.append(f"{name}: {what}")
    if len(flags) != 4:
        fails.append(f"{name}: {len(flags)} check results, expected 4")


# -- one pass of a workload --------------------------------------------------

def check_ladder_pass(ops: list[dict], outputs: list[str | None]) -> list[list[str]]:
    """Check every output of one ladder pass; None marks an operation whose
    process failed.  Returns the failures of each operation."""
    per_op: list[list[str]] = []
    posets: dict = {}
    for op, text in zip(ops, outputs):
        fails: list[str] = []
        per_op.append(fails)
        if text is None:
            continue
        d = op.get("datum", op.get("base"))
        where = f"{op['cmd']} {d['type'] if d else op['doc']['type']}"
        try:
            if op["cmd"] == "pieces":
                check_pieces_rows(ref_for(d["type"]), d, parse_pieces_jsonl(text), where, fails)
            elif op["cmd"] == "poset":
                parse = parse_poset_json if op["format"] == "json" else parse_poset_dot
                nodes, edges = parse(text)
                posets[(json.dumps(d), op["side"])] = check_poset(
                    ref_for(d["type"]), d, op["side"], nodes, edges, where, fails)
            elif op["cmd"] == "closure":
                words = [parse_word(line) for line in text.splitlines()]
                check_closure(ref_for(d["type"]), d, op["side"], op["w"], words,
                              posets.get((json.dumps(d), op["side"])), where, fails)
            elif op["cmd"] == "isogeny":
                doc = op["doc"]
                check_isogeny(ref_for(doc["type"]), doc, parse_isogeny(text), where, fails)
            elif op["cmd"] == "nonconnected":
                check_nonconnected(ref_for(d["type"]), op, parse_nonconnected(text), where, fails)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            fails.append(f"{where}: unreadable output ({exc!r})")
    return per_op


def check_classify_pass(plan: dict, rows: list) -> list[str]:
    fails: list[str] = []
    for q, row in zip(plan["queries"], rows):
        if isinstance(row, str):
            continue
        d = plan["data"][q["datum"]]
        check_classify(ref_for(d["type"]), d, q, row, f"classify {d['type']}", fails)
    return fails
