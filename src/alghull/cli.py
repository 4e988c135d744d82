"""Command-line interface: JSON in, JSON (or CSV) out.

Conventions: polynomials are coefficient lists with the constant term
first; rationals are serialized as decimal strings like "-3/4"; sparse
targets are term lists [[coeff, [e1, ..., en]], ...]; permutations are
1-indexed one-line images.  Exit codes: 0 success, 2 input error
(including a --group generator that is not a permutation of the roots).
A --group is shape-checked only: it selects the permutation route and
adds no constraint to the relations.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from fractions import Fraction

import click

from . import galois as galois_mod
from . import hull as hull_mod
from . import lattice, matrices
from . import relations as rel


def _read_json(source):
    if source is None or source == "-":
        return json.load(sys.stdin)
    with open(source) as fh:
        return json.load(fh)


def _expect(value, kind, what):
    """value, or a ValueError (exit 2) unless it is a JSON array (kind
    list) or object (kind dict)."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'array' if kind is list else 'object'}")
    return value


def _emit(data, out):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _frac(x) -> Fraction:
    return Fraction(str(x))


def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_matrix(rows):
    return matrices.as_matrix([[_frac(x) for x in _expect(row, list, "a matrix row")]
                               for row in _expect(rows, list, "a matrix")])


def _matrix_json(m):
    return [[_frac_str(x) for x in row] for row in m]


def _int(x) -> int:
    q = _frac(x)
    if q.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return q.numerator


def _parse_poly(coeffs):
    return tuple(_int(c) for c in _expect(coeffs, list, "a polynomial"))


def _parse_target(terms) -> rel.ExponentPolynomial:
    parsed = []
    for term in _expect(terms, list, "a target"):
        if len(_expect(term, list, "a target term")) != 2:
            raise ValueError("a target term must be a [coefficient, exponents] pair")
        c, exps = term
        parsed.append((_int(c), tuple(_int(e) for e in _expect(exps, list, "an exponent vector"))))
    return rel.ExponentPolynomial(tuple(parsed))


def _parse_group(images, degree):
    """The group of 1-indexed one-line images (a JSON array of arrays)."""
    return galois_mod.PermGroup.from_images(degree, [
        [_int(i) for i in _expect(im, list, "a group generator")]
        for im in _expect(images, list, "a group")])


def _bounds_json(b: rel.BoundData):
    return {
        "M_prime": b.M_prime, "M": b.M, "N": b.N, "r": b.r,
        "k": b.k, "p": b.p, "f_p": b.f_p,
    }


def _settings(data, mode, prime, seed):
    """The mode, working prime (None for automatic) and seed: each the
    command-line option when given, else the input's "mode"/"prime"/"seed"
    key."""
    mode = mode or data.get("mode", "proven")
    prime = prime if prime is not None else data.get("prime")
    prime = None if prime in (None, "auto") else _int(prime)
    seed = _int(seed if seed is not None else data.get("seed", 0))
    return mode, prime, seed


def _run(fn):
    """Map domain errors onto the documented exit codes."""
    try:
        return fn()
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _common(f):
    f = click.option("--mode", type=click.Choice(["proven", "heuristic"]),
                     default=None, help="certification mode")(f)
    f = click.option("--prime", type=int, default=None,
                     help="fixed working prime (default: automatic)")(f)
    f = click.option("--seed", type=int, default=None)(f)
    f = click.option("--out", type=click.Path(), default=None,
                     help="write JSON here instead of standard output")(f)
    return f


@click.group()
def main():
    """Algebraic hulls of rational matrix Lie algebras."""


@main.command("hull")
@click.argument("source", required=False)
@_common
@click.option("--group", "group_path", type=click.Path(exists=True), default=None,
              help="permutation group file (enables the permutation route)")
@click.option("--group-order", type=int, default=None,
              help="known Galois group order (tightens the degree bound)")
def cmd_hull(source, mode, prime, seed, out, group_path, group_order):
    """Algebraic hull of a matrix or a Lie algebra of matrices."""

    def go():
        data = _expect(_read_json(source), dict, "the input")
        mode_, prime_, seed_ = _settings(data, mode, prime, seed)
        cfg = dict(mode=mode_, prime=prime_, seed=seed_, group_order=group_order)
        t0 = time.perf_counter()
        if "matrix" in data:
            x = _parse_matrix(data["matrix"])
            group = _parse_group(_read_json(group_path), len(x)) if group_path else None
            route = "galois" if group is not None else "lll"
            res = hull_mod.hull_matrix(x, route=route, group=group, **cfg)
        elif "lie_algebra" in data:
            if group_path:
                raise ValueError("--group needs a single \"matrix\"; a Lie algebra takes none")
            gens = [_parse_matrix(m) for m in _expect(data["lie_algebra"], list, "a Lie algebra")]
            res = hull_mod.hull_lie_algebra(gens, **cfg)
        else:
            raise ValueError('input needs a "matrix" or "lie_algebra" key')
        elapsed = time.perf_counter() - t0
        wit = dict(res.witnesses)
        if "upsilon_basis" in wit:
            wit["upsilon_basis"] = [[_frac_str(g) for g in row]
                                    for row in wit["upsilon_basis"]]
        if "lambda_basis" in wit:
            wit["lambda_basis"] = [list(row) for row in wit["lambda_basis"]]
        _emit({
            "basis": [_matrix_json(b) for b in res.span.basis],
            "dim": res.dim,
            "route": res.route,
            "certification": res.certification,
            "witnesses": wit,
            "timings": {"total_seconds": elapsed},
        }, out)

    _run(go)


@main.command("relations")
@click.argument("source", required=False)
@_common
@click.option("--group", "group_path", type=click.Path(exists=True), default=None)
@click.option("--group-order", type=int, default=None)
def cmd_relations(source, mode, prime, seed, out, group_path, group_order):
    """Z-basis of the integer relation lattice of the targets."""

    def go():
        data = _expect(_read_json(source), dict, "the input")
        f = _parse_poly(data["poly"])
        targets = rel.TargetSet(f, tuple(
            _parse_target(t) for t in _expect(data["targets"], list, "the targets")))
        mode_, prime_, seed_ = _settings(data, mode, prime, seed)
        t0 = time.perf_counter()
        gp = group_path or data.get("group")
        if gp:
            group = _parse_group(_read_json(gp) if isinstance(gp, str) else gp, len(f) - 1)
            basis = rel.find_relations_galois(
                targets, group, mode=mode_, prime=prime_,
                group_order=group_order, seed=seed_)
            route = "galois"
        else:
            basis = rel.find_relations_lll(
                targets, mode=mode_, prime=prime_,
                group_order=group_order, seed=seed_)
            route = "lll"
        elapsed = time.perf_counter() - t0
        _emit({
            "basis": [list(row) for row in basis.rows],
            "route": route,
            "mode": mode_,
            "certification": basis.certification,
            "verification_k": basis.verification_k,
            "bounds": _bounds_json(basis.bounds),
            "timings": {"total_seconds": elapsed},
        }, out)

    _run(go)


@main.command("iszero")
@click.argument("source", required=False)
@_common
@click.option("--group-order", type=int, default=None)
def cmd_iszero(source, mode, prime, seed, out, group_order):
    """Provably decide whether a target expression in the roots is zero."""

    def go():
        data = _expect(_read_json(source), dict, "the input")
        f = _parse_poly(data["poly"])
        g = _parse_target(data["target"])
        mode_, prime_, seed_ = _settings(data, mode, prime, seed)
        kw = {}
        if mode_ == "heuristic":
            kw["k"] = _int(data.get("k", 4))
        t0 = time.perf_counter()
        answer, bounds = rel.zero_test(g, f, mode=mode_, prime=prime_,
                                       group_order=group_order,
                                       seed=seed_, **kw)
        elapsed = time.perf_counter() - t0
        _emit({
            "result": answer,
            "mode": mode_,
            "bounds": _bounds_json(bounds),
            "timings": {"total_seconds": elapsed},
        }, out)

    _run(go)


@main.command("lll")
@click.argument("source", required=False)
@click.option("--delta", default="3/4")
@click.option("--out", type=click.Path(), default=None)
def cmd_lll(source, delta, out):
    """LLL-reduce a basis matrix (JSON array of arrays of integers)."""

    def go():
        rows = _expect(_read_json(source), list, "the input")
        basis = [[_int(x) for x in _expect(row, list, "a basis row")] for row in rows]
        reduced = lattice.lll_reduce(basis, delta=Fraction(str(delta)))
        _emit([[str(x) for x in row] for row in reduced], out)

    _run(go)


@main.command("jordan")
@click.argument("source", required=False)
@click.option("--out", type=click.Path(), default=None)
def cmd_jordan(source, out):
    """Jordan decomposition X = S + N over Q."""

    def go():
        data = _read_json(source)
        x = _parse_matrix(data["matrix"] if isinstance(data, dict) else data)
        s, n = matrices.jordan_decomposition(x)
        _emit({"semisimple": _matrix_json(s), "nilpotent": _matrix_json(n)}, out)

    _run(go)


def _oracle_cmd(name, degree, fn):
    @main.command(name)
    @click.argument("source", required=False)
    @click.option("--trust-assertion", is_flag=True,
                  help="accept the group condition without verification")
    @click.option("--out", type=click.Path(), default=None)
    def cmd(source, trust_assertion, out):
        def go():
            data = _expect(_read_json(source), dict, "the input")
            f = [Fraction(str(c)) for c in _expect(data["poly"], list, "a polynomial")]
            asserted = trust_assertion or bool(data.get("assert_group"))
            oh = fn(f, assert_group=asserted)
            _emit({
                "kind": oh.kind,
                "case": oh.case,
                "gammas": [[_frac_str(g) for g in row] for row in oh.gammas],
            }, out)

        _run(go)

    cmd.__doc__ = f"Closed-form hull for an irreducible degree-{degree} polynomial."
    return cmd


cmd_oracle_deg4 = _oracle_cmd("oracle-deg4", 4, hull_mod.closed_form_deg4)
cmd_oracle_deg6 = _oracle_cmd("oracle-deg6", 6, hull_mod.closed_form_deg6)


@main.command("bench")
@click.argument("corpus", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["proven", "heuristic"]), default="proven")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None, help="CSV output path")
@click.option("--plot-data", type=click.Path(), default=None,
              help="write 'log_group_order seconds' pairs here")
def cmd_bench(corpus, mode, seed, out, plot_data):
    """Run both relation routes over a corpus file and report timings.

    The corpus is a JSON list of entries {label, poly, group_order,
    expected_dim} with an optional "group": 1-indexed one-line images of
    permutation generators.  Route A is the LLL construction, route B the
    permutation route, which shape-checks the entry's generators (none
    when "group" is absent); other keys are ignored.  Per-entry failures,
    a generator that is not a permutation among them, are reported and do
    not stop the run.  A corpus that is not a JSON array of objects exits
    2.  The relation caches are emptied before each timed call; root
    contexts stay shared.
    """
    def go():
        entries = [_expect(entry, dict, "a corpus entry")
                   for entry in _expect(_read_json(corpus), list, "the corpus")]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "route", "mode", "p", "f_p", "k", "seconds", "dim", "ok"])
        plot_rows = []
        mismatches = 0
        for entry in entries:
            label = entry.get("label", "?")
            try:
                f = _parse_poly(entry["poly"])
                order = entry.get("group_order")
                x = matrices.companion(f)
                for route in ("A", "B"):
                    # time each route's searches cold, not an earlier entry's
                    # or route's memoized answer
                    rel.clear_caches()
                    t0 = time.perf_counter()
                    if route == "A":
                        res = hull_mod.hull_matrix(
                            x, mode=mode, route="lll", group_order=order, seed=seed)
                    else:
                        group = galois_mod.PermGroup.from_images(
                            len(f) - 1, entry.get("group", []))
                        res = hull_mod.hull_matrix(
                            x, mode=mode, route="galois", group=group,
                            group_order=order, seed=seed)
                    elapsed = time.perf_counter() - t0
                    expected = entry.get("expected_dim")
                    ok = expected is None or res.dim == expected
                    if not ok:
                        mismatches += 1
                    writer.writerow([
                        label, route, mode,
                        res.witnesses.get("prime", ""),
                        res.witnesses.get("f_p", ""),
                        res.witnesses.get("precision", ""),
                        f"{elapsed:.3f}", res.dim, "yes" if ok else "no",
                    ])
                    if order:
                        plot_rows.append((math.log(order), elapsed, label, route))
            except Exception as exc:  # isolate per-entry failures
                mismatches += 1
                writer.writerow([label, "-", mode, "", "", "", "", "", f"error: {exc}"])
        text = buf.getvalue()
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
        if plot_data:
            with open(plot_data, "w") as fh:
                fh.write("# log_group_order seconds label route\n")
                for lo, sec, label, route in plot_rows:
                    fh.write(f"{lo:.4f} {sec:.3f} {label} {route}\n")
        if mismatches:
            click.echo(f"{mismatches} entries flagged", err=True)

    _run(go)


if __name__ == "__main__":
    main()
