"""Batch command-line surface over JSON files.

Five subcommands: `snf`, `abelianize`, `trace-form`, `group-ring`,
`analyze-form`. Output is a single JSON document on stdout with canonical key
order, so identical inputs give byte-identical results. Exit codes: 0 success,
1 input error, 2 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Sequence

from . import __version__
from .cyclotomic import trace_form_gram
from .errors import CapExceededError
from .exactla import IntMatrix, snf
from .fpgroup import GroupPresentation, abelianize, aut_bruteforce, galois_surrogate
from .groupring import FiniteGroup, abelian_group, frobenius_form, wedderburn_decompose
from .quadform import (
    BilinearForm,
    Diag,
    Hyperbolic,
    WittExpression,
    direct_sum,
    e8_form,
    from_witt,
    invariants,
    odd_prime_trace_form,
    parse_witt,
    two_power_signature_values,
    two_power_trace_form,
)
from .smooth4 import analyze_intersection_form

CONDUCTOR_CAP = 64
# largest matrix side, form rank, --prime, generator count and relator count the CLI accepts
SHAPE_CAP = 64
# largest --two-power exponent n; the model has rank 2^(n+1) = 256
TWO_POWER_CAP = 7


@dataclass(frozen=True)
class CommandResult:
    """Uniform command outcome: ok/error status, payload, diagnostics."""

    status: str
    payload: dict
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in ("ok", "error"):
            raise ValueError("status must be 'ok' or 'error'")
        if self.status == "error" and not self.diagnostics:
            raise ValueError("error results must carry diagnostics")

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "payload": self.payload,
            "diagnostics": list(self.diagnostics),
        }
        try:
            return json.dumps(doc, sort_keys=True, indent=2)
        except ValueError as exc:
            # json raises ValueError only for an int past Python's int->str limit
            raise CapExceededError(
                "result holds an integer longer than Python's "
                f"{sys.get_int_max_str_digits()}-digit limit for int-to-str conversion"
            ) from exc


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; those are input errors
    # here (exit 1), and 2 is reserved for cap violations.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _check_shape(what: str, size: int) -> None:
    if size > SHAPE_CAP:
        raise CapExceededError(f"{what} {size} exceeds the cap {SHAPE_CAP}")


def _witt_rank(expr: WittExpression) -> int:
    """Rank of a Witt expression, refusing a Pfister block too large to build."""
    rank = 0
    for term in expr.terms:
        if isinstance(term, Diag):
            rank += term.count
        elif isinstance(term, Hyperbolic):
            rank += 2 * term.count
        elif term.n >= SHAPE_CAP.bit_length():  # 2^n > SHAPE_CAP; 2^n is never evaluated
            raise CapExceededError(
                f"Witt term 2^{term.n}<1> has rank 2^{term.n}, which exceeds the cap {SHAPE_CAP}"
            )
        else:
            rank += 2**term.n
    return rank


def _matrix_from_json(doc) -> IntMatrix:
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError('matrix JSON must be an object with a "rows" key')
    rows = doc["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError('"rows" must be a list of lists of integers')
    _check_shape("matrix row count", len(rows))
    _check_shape("matrix column count", max(map(len, rows), default=0))
    return IntMatrix.from_rows(
        [[_require_int(x, "matrix entry") for x in row] for row in rows]
    )


def _presentation_from_json(doc) -> GroupPresentation:
    if not isinstance(doc, dict) or "generators" not in doc:
        raise ValueError('presentation JSON must be an object with a "generators" key')
    gens = _require_int(doc["generators"], '"generators"')
    relators = doc.get("relators", [])
    if not isinstance(relators, list) or not all(isinstance(w, list) for w in relators):
        raise ValueError('"relators" must be a list of lists of signed indices')
    _check_shape("generator count", gens)
    _check_shape("relator count", len(relators))
    return GroupPresentation.from_lists(
        gens, [[_require_int(x, "relator letter") for x in w] for w in relators]
    )


def _group_from_json(doc) -> FiniteGroup:
    if not isinstance(doc, dict):
        raise ValueError("group JSON must be an object")
    if "abelian_invariants" in doc:
        invs = doc["abelian_invariants"]
        if not isinstance(invs, list):
            raise ValueError('"abelian_invariants" must be a list of integers')
        return abelian_group([_require_int(m, "invariant") for m in invs])
    if "cayley_table" in doc:
        table = doc["cayley_table"]
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise ValueError('"cayley_table" must be a list of rows')
        return FiniteGroup.from_cayley_table(
            [[_require_int(x, "table entry") for x in row] for row in table]
        )
    raise ValueError('group JSON needs "abelian_invariants" or "cayley_table"')


def _invariants_payload(form: BilinearForm) -> dict:
    inv = invariants(form)
    return {**asdict(inv), "signature_value": inv.signature_value}


# --- command handlers -----------------------------------------------------------

def _cmd_snf(args) -> CommandResult:
    matrix = _matrix_from_json(_load_json_file(args.matrix_file))
    result = snf(matrix)
    payload = {
        "S": result.S.to_rows(),
        "U": result.U.to_rows(),
        "V": result.V.to_rows(),
        "diagonal": list(result.diagonal),
    }
    return CommandResult("ok", payload)


def _cmd_abelianize(args) -> CommandResult:
    pres = _presentation_from_json(_load_json_file(args.presentation_file))
    h1 = abelianize(pres)
    payload = {"free_rank": h1.free_rank, "torsion": list(h1.torsion)}
    if args.galois:
        payload["galois"] = asdict(galois_surrogate(pres))
    return CommandResult("ok", payload)


def _cmd_trace_form(args) -> CommandResult:
    diagnostics: list[str] = []
    if args.prime is not None:
        _check_shape("prime", args.prime)
        form = odd_prime_trace_form(args.prime)
        payload = {
            "kind": "odd_prime",
            "parameter": args.prime,
            "gram": form.gram.to_rows(),
            "invariants": _invariants_payload(form),
        }
    elif args.two_power is not None:
        n = args.two_power
        if n > TWO_POWER_CAP:
            raise CapExceededError(f"two-power exponent {n} exceeds the cap {TWO_POWER_CAP}")
        form = two_power_trace_form(n)
        claimed, computed = two_power_signature_values(n)
        payload = {
            "kind": "two_power",
            "parameter": n,
            "gram": form.gram.to_rows(),
            "invariants": _invariants_payload(form),
            "signature_claimed": claimed,
            "signature_computed": computed,
            "signature_discrepancy": claimed != computed,
        }
        if claimed != computed:
            diagnostics.append(
                f"closed-form signature claim {claimed} disagrees with the literal "
                f"diagonal count {computed}"
            )
    else:
        n = args.conductor
        if n > CONDUCTOR_CAP:
            raise CapExceededError(f"conductor {n} exceeds the cap {CONDUCTOR_CAP}")
        gram = trace_form_gram(n)
        form = BilinearForm(gram)
        payload = {
            "kind": "conductor",
            "parameter": n,
            "gram": gram.to_rows(),
            "invariants": _invariants_payload(form),
        }
    return CommandResult("ok", payload, tuple(diagnostics))


def _cmd_group_ring(args) -> CommandResult:
    group = _group_from_json(_load_json_file(args.group_file))
    payload: dict = {"order": group.order, "abelian": group.is_abelian()}
    if group.abelian_invariants is not None:
        payload["abelian_invariants"] = list(group.abelian_invariants)
    if args.frobenius:
        form = frobenius_form(group)
        payload["frobenius"] = {
            "gram": form.gram.to_rows(),
            "symmetric": form.gram.is_symmetric(),
            "commutative": group.is_abelian(),
        }
    if args.decompose:
        decomp = wedderburn_decompose(group)
        payload["decomposition"] = {
            "census": [list(p) for p in decomp.pairs],
            "primary_fields": (
                None
                if decomp.primary_fields is None
                else [list(p) for p in decomp.primary_fields]
            ),
            "notes": list(decomp.notes),
        }
    if args.aut:
        payload["aut"] = asdict(aut_bruteforce(group))
    return CommandResult("ok", payload)


def _fixture_form(name: str) -> BilinearForm:
    if name == "e8":
        return e8_form()
    if name == "e8e8":
        return direct_sum(e8_form(), e8_form())
    if name.startswith("In:"):
        n = int(name.split(":", 1)[1])
        if n < 1:
            raise ValueError("fixture In:n needs n >= 1")
        _check_shape("fixture rank", n)
        return BilinearForm(IntMatrix.identity(n))
    raise ValueError(f"unknown fixture {name!r} (use e8, e8e8, or In:n)")


def _cmd_analyze_form(args) -> CommandResult:
    if args.fixture is not None:
        form = _fixture_form(args.fixture)
    elif args.witt is not None:
        expr = parse_witt(args.witt)
        _check_shape("Witt expression rank", _witt_rank(expr))
        form = from_witt(expr)
    else:
        form = BilinearForm(_matrix_from_json(_load_json_file(args.gram_file)))
    report = analyze_intersection_form(form)
    return CommandResult("ok", report.to_json_dict())


# --- parser and dispatch ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="forms4d",
        description=(
            "Exact arithmetic for integral bilinear forms, cyclotomic trace "
            "forms, group rings, and the Rokhlin/Donaldson smoothness "
            "obstructions for intersection forms of simply connected "
            "4-manifolds. All commands read JSON and print one JSON document."
        ),
    )
    parser.add_argument("--version", action="version", version=f"forms4d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_snf = sub.add_parser(
        "snf",
        help="Smith normal form of an integer matrix",
        description=(
            "Smith normal form S = U*A*V of an integer matrix, with unimodular "
            'U and V. Input file: {"rows": [[int, ...], ...]}, at most 64 rows '
            "and 64 columns."
        ),
    )
    p_snf.add_argument("matrix_file")
    p_snf.set_defaults(handler=_cmd_snf)

    p_ab = sub.add_parser(
        "abelianize",
        help="first homology of a finitely presented group",
        description=(
            "Abelianization of a presentation via the relator exponent matrix. "
            'Input file: {"generators": 2, "relators": [[1, 1, -2, -2, -2]]}, '
            "at most 64 generators and 64 relators. "
            "--galois adds the automorphism report of the result."
        ),
    )
    p_ab.add_argument("presentation_file")
    p_ab.add_argument("--galois", action="store_true")
    p_ab.set_defaults(handler=_cmd_abelianize)

    p_tf = sub.add_parser(
        "trace-form",
        help="Gram matrices of cyclotomic trace forms",
        description=(
            "Trace-form Gram matrices: --prime p (at most 64) for the diagonal "
            "odd-prime model I_p, --two-power n (at most 7) for the rank 2^(n+1) "
            "diagonal model (reports claimed and computed signatures), --conductor "
            "n (at most 64) for the exact power-basis Gram of Z[zeta_n]."
        ),
    )
    sel = p_tf.add_mutually_exclusive_group(required=True)
    sel.add_argument("--prime", type=int)
    sel.add_argument("--two-power", type=int, dest="two_power")
    sel.add_argument("--conductor", type=int)
    p_tf.set_defaults(handler=_cmd_trace_form)

    p_gr = sub.add_parser(
        "group-ring",
        help="group ring pairing, cyclotomic decomposition, automorphisms",
        description=(
            "Group ring reports for a finite group. Input file: "
            '{"abelian_invariants": [3, 5]} or {"cayley_table": [[...], ...]}. '
            "--frobenius prints the trace pairing Gram with its symmetry check, "
            "--decompose the cyclotomic summand census (abelian only), "
            "--aut the brute-force automorphism report (abelian only)."
        ),
    )
    p_gr.add_argument("group_file")
    p_gr.add_argument("--frobenius", action="store_true")
    p_gr.add_argument("--decompose", action="store_true")
    p_gr.add_argument("--aut", action="store_true")
    p_gr.set_defaults(handler=_cmd_group_ring)

    p_an = sub.add_parser(
        "analyze-form",
        help="Rokhlin/Donaldson obstruction report for a unimodular form",
        description=(
            "Obstruction analysis of a candidate intersection form, from a "
            'Gram file {"rows": [[...], ...]}, --fixture e8 | e8e8 | In:n, or '
            "--witt with a Witt expression such as '7<1> + H + 2^4<1>' "
            "(k<1>/k<-1> diagonal blocks, H or kxH hyperbolic planes, 2^n<1> "
            "Pfister blocks). Forms of rank over 64 are refused. Non-unimodular "
            "input is rejected with its determinant named."
        ),
    )
    target = p_an.add_mutually_exclusive_group(required=True)
    target.add_argument("gram_file", nargs="?")
    target.add_argument("--fixture")
    target.add_argument("--witt")
    p_an.set_defaults(handler=_cmd_analyze_form)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args).to_json()
        code = 0
    except CapExceededError as exc:
        text = CommandResult("error", {}, (str(exc),)).to_json()
        code = 2
    except (_UsageError, ValueError, OSError) as exc:
        text = CommandResult("error", {}, (str(exc),)).to_json()
        code = 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
