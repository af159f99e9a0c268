"""Command-line front end.

Subcommands: construct (build and dump a full channel bundle), verify
(re-check every invariant of a bundle file), simulate (seeded end-to-end
trials), rates (exact rate tables over a parameter grid).  ``main``
builds only the named command's parser; ``qcsa -h``, no command, an
unknown one or arguments that parser leaves over get the full tree.

Exit codes: 0 success, 1 internal failure or failed checks/trials,
2 invalid parameters, 3 malformed input file.  Output is deterministic
for a fixed argument list, seed included, so runs can be diffed.  A JSON
rate table is ``json.dumps(rows, indent=2, sort_keys=True)`` and a
newline, written 16,384 encoder chunks at a time (``json.dump`` writes
each chunk, ``json.dumps`` holds them all).  A bundle is byte for byte
that layout of its dict, and a JSONL line ``json.dumps(row, sort_keys=True)``;
the writers below emit those directly, since ``indent`` sends a bundle's
ints through ``json``'s pure-Python encoder.
``construct`` writes each matrix from its int64 array, with no int list;
in a leaf of 4096 entries or more, each run of 16 or more zeros is a
slice of one constant text.  ``verify`` reads a bundle as ``json.load``
would, except that each long flat list of non-negative integers comes
back as an int64 array parsed by numpy; a file that reader, or the bundle
parse of its arrays, does not take is read again by ``json.load`` itself.
"""

import argparse
import csv
import json
import os
import sys
import warnings
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .codes import ParameterError, qcsa_matrix
from .field import PrimeField
from .nsumbox import QcsaSystem, build_qcsa_system, verify_system
from .scheme import (rate_report, reduce_servers, reduced_params, trial_blocks, trial_costs,
                     trial_summary)

DEFAULT_SEED = 1729
OUTPUT_DIR_ENV = "QCSA_OUTPUT_DIR"


class BundleFormatError(Exception):
    """Input file is missing, unreadable, or structurally invalid."""


class OutputError(Exception):
    """The output file cannot be written."""


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not all(-2**63 <= x < 2**63 for x in values):
        raise argparse.ArgumentTypeError(f"integers must fit in 64 bits, got {text!r}")
    return values


def _int_range(text: str) -> tuple:
    """A single value 'n' or an inclusive range 'a:b' with a <= b."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or A:B, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: A must not exceed B")
    return lo, hi


@contextmanager
def _output(path: str | None):
    """The stream a command writes to: stdout, or ``path`` opened for writing.

    A relative ``path`` is joined to ``$QCSA_OUTPUT_DIR`` when that is set.
    Any OSError while the file is open becomes an OutputError.
    """
    if path is None:
        yield sys.stdout
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}")


# Entries formatted at once (never the text of a whole M_Q), which is also
# the shortest leaf searched for runs of _ZERO_RUN or more zeros: searching
# every leaf cost a sim-grid construct, whose leaves are shorter, about 20%.
_CHUNK, _ZERO_RUN = 4096, 16


def _json_chunks(value, pad: str = ""):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, in pieces.

    ``value`` is a bundle or a part of one.  A leaf, an int64 array or a list
    (every list in a bundle is a non-empty list of ints), is written
    ``_CHUNK`` entries at most by one ``%d`` join over ``tolist``; in a leaf
    of ``_CHUNK`` entries or more, each run of ``_ZERO_RUN`` or more zeros
    is a slice of one ``"0" + sep`` text instead.  Dicts go by sorted key,
    each encoded as ``json`` does; scalars and empty dicts by ``json.dumps``.
    """
    inner = pad + "  "
    if isinstance(value, (np.ndarray, list)):
        arr, sep = np.asarray(value), ",\n" + inner
        pieces = [(0, arr.size, False)]  # (start, end, all zeros)
        if arr.size >= _CHUNK:
            flips = np.flatnonzero(np.diff(arr == 0, prepend=False, append=False)).reshape(-1, 2)
            edges = [0, *flips[flips[:, 1] - flips[:, 0] >= _ZERO_RUN].ravel().tolist(), arr.size]
            pieces = ((start, min(start + _CHUNK, end), k % 2) for k, end in enumerate(edges[1:])
                      for start in range(edges[k], end, _CHUNK))
            zeros = ("0" + sep) * _CHUNK
        yield "[\n" + inner
        for start, end, zero in pieces:
            n = end - start
            text = (zeros[:n * (len(sep) + 1) - len(sep)] if zero else
                    sep.join(["%d"] * n) % tuple(arr[start:end].tolist()))
            yield (sep if start else "") + text
        yield f"\n{pad}]"
    elif isinstance(value, dict) and value:
        sep = "{\n"
        for key in sorted(value):
            yield f"{sep}{inner}{json.encoder.encode_basestring_ascii(key)}: "
            yield from _json_chunks(value[key], inner)
            sep = ",\n"
        yield f"\n{pad}}}"
    else:
        yield json.dumps(value)


def _point_flags(parser):
    parser.add_argument("--p", type=int, required=True, help="prime field modulus")
    parser.add_argument("--N", type=int, required=True, help="number of servers")
    parser.add_argument("--L", type=int, required=True, help="desired symbols per instance")
    parser.add_argument("--alpha", type=_int_list, help="N evaluation points (comma-separated)")
    parser.add_argument("--f", type=_int_list, help="L desired-symbol points (comma-separated)")
    parser.add_argument("--u", type=_int_list, help="N nonzero multipliers (default: all ones)")


def _construct_flags(parser):
    parser.set_defaults(run=cmd_construct)
    _point_flags(parser)
    parser.add_argument("--beta", type=_int_list,
                        help="extra multipliers; construct also emits the QCSA matrix for them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="recorded in the bundle")
    parser.add_argument("--out", help="output file (default: stdout)")


def _verify_flags(parser):
    parser.set_defaults(run=cmd_verify)
    parser.add_argument("path", help="bundle file produced by construct")


def _simulate_flags(parser):
    parser.set_defaults(run=cmd_simulate)
    _point_flags(parser)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--out", help="trial reports as JSON lines (default: stdout)")


def _rates_flags(parser):
    parser.set_defaults(run=cmd_rates)
    parser.add_argument("--N", type=_int_range, required=True, help="N or A:B (inclusive)")
    parser.add_argument("--L", type=_int_range, help="L or A:B filter (default: all 1 <= L < N)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


COMMANDS = {
    "construct": ("build a channel bundle and write it as JSON", _construct_flags),
    "verify": ("re-check every invariant of a bundle file", _verify_flags),
    "simulate": ("run seeded end-to-end trials", _simulate_flags),
    "rates": ("exact rate table over an (N, L) grid", _rates_flags),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcsa", description="Construct, verify, and simulate "
                                     "over-the-air CSA channels over GF(p).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, declare) in COMMANDS.items():
        declare(sub.add_parser(name, help=text))
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, by ``argv[0]``'s parser alone if it takes the rest."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qcsa {argv[0]}")
        COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def _field_from_args(args) -> PrimeField:
    try:
        return PrimeField(args.p)
    except (TypeError, ValueError) as exc:
        raise ParameterError(str(exc))


def cmd_construct(args) -> int:
    field = _field_from_args(args)
    if reduce_servers(args.N, args.L) != (args.N, args.L):
        raise ParameterError(f"L={args.L} exceeds N/2={args.N / 2}; not constructible")
    params = reduced_params(field, args.N, args.L, alpha=args.alpha, beta=args.u, f=args.f)
    bundle = build_qcsa_system(params)._doc()
    bundle["seed"] = args.seed
    if args.beta is not None:
        bundle["Q_beta"] = qcsa_matrix(params.with_beta(args.beta))._doc()
    with _output(args.out) as out:
        out.writelines(_json_chunks(bundle))
        out.write("\n")
    return 0


_JSON_SPACE = b" \t\n\r"
# A list of fewer bytes is left to json.  Reading and range-checking one
# list in construct's layout (timeit, best of 15, 2-vCPU VM), the two
# readers cost the same, within noise, somewhere from about 1.5 KB
# (3-digit entries, about 60 us each) to 5 KB (10-digit, about 80 us);
# past that numpy pulls ahead, 70 against 215 us at 10 KB of 3-digit
# entries.  4096 sits in that band and above a sim-grid bundle's longest
# list (3,825 bytes at N = 12, p = 2^31 - 1), which json keeps reading.
_MIN_ARRAY_BYTES = 4096
# Stands for one array in the text json parses.  Outside a string it is
# the constant NaN between whitespace; inside one, its raw newlines make
# json fail.
_PLACEHOLDER = b"\nNaN\n"


def _last_byte(raw: bytes, end: int) -> bytes:
    """The last byte of ``raw[:end]`` that is not JSON whitespace, or b"" if there is none."""
    end -= 1
    while end >= 0 and raw[end] in _JSON_SPACE:
        end -= 1
    return raw[end:end + 1]


def _int_array(raw: bytes, start: int, end: int):
    """The list ``raw[start:end + 1]`` as int64, if it is a long dict value of small ints.

    Small means in [0, 10**18); long, at least ``_MIN_ARRAY_BYTES``.
    ``np.fromstring`` also takes a sign, \\v and \\f (even alone, as a 0),
    leading zeros, a blank entry (as 0) and a trailing comma, and it
    saturates past int64.  So the list must follow a colon and end in a
    digit, its values must stay below 10**18, and its bytes that are not
    commas or JSON whitespace must be ASCII digits, exactly as many as its
    values' decimal digits.  Returns None for any other list.
    """
    if (end - start < _MIN_ARRAY_BYTES or _last_byte(raw, start) != b":"
            or not _last_byte(raw, end).isdigit()):
        return None
    body = raw[start + 1:end]
    # Where fromstring stops short, newer numpy raises and older numpy warns
    # and returns what it read so far; both reject the list here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            arr = np.fromstring(body, dtype=np.int64, sep=",")
        except (ValueError, Warning):
            return None
    if not arr.size:
        return None
    top = arr.max()
    if top >= 10**18:
        return None
    digits = arr.size + sum(np.count_nonzero(arr >= 10**k) for k in range(1, len(str(top))))
    rest = body.translate(None, b"," + _JSON_SPACE)
    return arr if rest.isdigit() and len(rest) == digits else None


def _read_json(path: str):
    """``json.load`` of the UTF-8 file at ``path``, with int64 arrays for flat int lists.

    Each list that ``_int_array`` takes is read by numpy straight into an
    array, so no Python int is built for it, and a placeholder takes its
    place in the text json parses.  Any other list is left to json.  A NaN
    of the file's own raises ValueError; json's errors pass through.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pieces, arrays, start = [], [], 0
    at = raw.find(b"[")
    while at >= 0:
        # A flat list closes before the next "[" opens; looking no further
        # keeps the scan linear in the file size, however lists nest.
        nxt = raw.find(b"[", at + 1)
        end = raw.find(b"]", at, nxt if nxt >= 0 else len(raw))
        arr = _int_array(raw, at, end) if end >= 0 else None
        if arr is not None:
            pieces += [raw[start:at], _PLACEHOLDER]
            arrays.append(arr)
            start = end + 1
        at = nxt
    pieces.append(raw[start:])
    skeleton = b"".join(pieces)
    if skeleton.count(b"NaN") != len(arrays):
        raise ValueError("a NaN besides the placeholders")
    fill = iter(arrays)
    return json.loads(skeleton.decode("utf-8"),
                      parse_constant=lambda c: next(fill) if c == "NaN" else float(c))


def _load_bundle(path: str) -> QcsaSystem:
    try:
        return QcsaSystem.from_dict(_read_json(path))
    except Exception:
        # Read the file again as json.load alone reads it, so a file that the
        # fast reader, or from_dict on its arrays, does not take gets the
        # error and exit code that the plain reader gives.
        pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers past int()'s digit limit.
        raise BundleFormatError(f"cannot read bundle {path}: {exc}")
    try:
        return QcsaSystem.from_dict(doc)
    except KeyError as exc:
        raise BundleFormatError(f"malformed bundle {path}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise BundleFormatError(f"malformed bundle {path}: {exc}")


def cmd_verify(args) -> int:
    system = _load_bundle(args.path)
    checks = verify_system(system)
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    failed = sum(not ok for ok in checks.values())
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def cmd_simulate(args) -> int:
    """Write each block's trial rows as the block arrives, then the run's summary.

    A row is ``json.dumps(report, sort_keys=True) + "\\n"`` of the trial's
    ``run_trials`` report, written from the block's arrays: ``params`` and
    ``costs`` are encoded once, and ``expected`` by ``_int_rows``; a block
    whose every trial passed writes that text as ``y`` too.
    """
    field = _field_from_args(args)
    params = reduced_params(field, args.N, args.L, alpha=args.alpha, beta=args.u, f=args.f)
    if args.trials < 0:
        raise ParameterError(f"--trials must be nonnegative, got {args.trials}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be nonnegative, got {args.seed}")
    # Every ParameterError is raised here, before --out is opened.
    blocks = trial_blocks(params, args.seed, args.trials)
    summary = trial_summary(params, args.seed, args.trials)
    summary["reduced"] = (params.N, params.L) != (args.N, args.L)
    summary["requested"] = {"N": args.N, "L": args.L}
    head = f'{{"costs": {json.dumps(trial_costs(params), sort_keys=True)}, "expected": ['
    middle = f'], "params": {json.dumps(summary["params"], sort_keys=True)}, "pass": '
    passed, failure = 0, None
    with _output(args.out) as out:
        for block, y, expected, ok in blocks:
            e_rows = _int_rows(expected.T)
            y_rows = e_rows if ok.all() else _int_rows(y.T)  # equal arrays give equal text
            out.write("".join(
                f'{head}{e_t}{middle}{"true" if ok_t else "false"}, "seed": [{args.seed}, {t}], '
                f'"y": [{y_t}]}}\n'
                for t, y_t, e_t, ok_t in zip(block, y_rows, e_rows, ok.tolist())
            ))
            if failure is None and not ok.all():  # where the first failing y departs
                j = int(np.argmin(ok))
                i = int(np.argmax(y[:, j] != expected[:, j]))
                failure = (f"first failing trial: (seed, t) = ({args.seed}, {block[j]}); "
                           f"y[{i}] = {y[i, j]}, expected {expected[i, j]}")
            passed += int(np.count_nonzero(ok))
        summary["passed"] = passed
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    print(
        f"{passed}/{args.trials} trials passed at "
        f"N={params.N} L={params.L} q={field.p} "
        f"({params.N} qudits per trial for {2 * params.L} desired symbols)",
        file=sys.stderr,
    )
    if failure is not None:
        print(failure, file=sys.stderr)
    return 0 if passed == args.trials else 1


def _int_rows(a: np.ndarray) -> list:
    """``", ".join(map(str, row))`` for each row of ``a``, whose entries are in [0, 2^32).

    Every entry gets a field of the widest entry's digits and ", "; the
    digits come from array arithmetic, and a mask drops leading zeros and
    each row's last separator, so no Python int or str is made per entry.
    """
    rows, n = a.shape
    width = len(str(int(a.max())))
    text = np.empty((rows, n, width + 2), dtype=np.uint8)
    keep = np.ones((rows, n, width + 2), dtype=bool)
    text[:, :, width:] = (ord(","), ord(" "))
    keep[:, -1, width:] = False
    rest = a.astype(np.uint32)
    for k in range(width - 1, 0, -1):
        text[:, :, k] = rest % 10
        rest //= 10
        keep[:, :, k - 1] = rest > 0
    text[:, :, 0] = rest
    text[:, :, :width] += ord("0")
    flat = text[keep].tobytes().decode("ascii")
    ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


def cmd_rates(args) -> int:
    n_lo, n_hi = args.N
    if n_lo < 2:
        raise ParameterError(f"need N >= 2, got {n_lo}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        l_lo, l_hi = args.L if args.L is not None else (1, n - 1)
        for l in range(max(1, l_lo), min(n - 1, l_hi) + 1):
            rows.append(rate_report(n, l).to_dict())
    if not rows:  # only a --L filter can empty the grid, since N >= 2
        raise ParameterError(f"--N {n_lo}:{n_hi} --L {l_lo}:{l_hi} selects no pair with 1 <= L < N")
    with _output(args.out) as out:
        if args.format == "json":
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(rows)
            out.writelines(iter(lambda: "".join(islice(chunks, 16384)), ""))
            out.write("\n")
        else:
            writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except ParameterError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except BundleFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
