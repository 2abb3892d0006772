"""The frontend CLI: lower specs, list the corpus, pin the manifest.

Usage::

    python -m repro.frontend lower 'C[i,j] += A[i,k] * B[k,j]' \
        --dims i=512,j=512,k=512
    python -m repro.frontend corpus
    python -m repro.frontend manifest > benchmarks/corpus_manifest.json
    python -m repro.frontend manifest --check benchmarks/corpus_manifest.json
    python -m repro.frontend manifest --family mef --check \
        benchmarks/corpus_manifest.json

``lower`` prints the lowered stages and their content fingerprints —
the hashes the serve layer coalesces and shards on — so two interpreter
runs printing identical output *is* the determinism guarantee.

``manifest --check`` exits 1 on any drift against the committed golden
file: a lowering change, fingerprint change, or classification change
is an API break for every cache and serve deployment, so CI treats it
like one.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys

from repro.core.exitcodes import EXIT_OK, EXIT_USAGE
from repro.frontend.corpus import CORPUS, corpus_manifest
from repro.frontend.lowering import lower_spec
from repro.util import ValidationError, canonical_json

EXIT_DRIFT = 1


def kv_arg(value: str, *, flag: str, cast, what: str):
    """Parse ``name=value,name=value`` flag payloads (``--dims`` etc.)."""
    out = {}
    for item in value.split(","):
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"{flag} wants NAME=VALUE[,NAME=VALUE...], got {item!r}"
            )
        try:
            out[name] = cast(raw.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag}: {name}={raw.strip()!r} is not {what}"
            ) from None
    return out


def dims_arg(value: str):
    return kv_arg(value, flag="--dims", cast=int, what="an integer")


def dtypes_arg(value: str):
    return kv_arg(value, flag="--dtypes", cast=str, what="a dtype name")


def param_arg(value: str):
    pairs = kv_arg(value, flag="--param", cast=float, what="a number")
    return list(pairs.items())


def add_spec_args(parser) -> None:
    """The ``--dims``/``--dtypes``/``--param`` flags a spec lowers with.

    ``lower`` here and the ``repro`` CLI's ``--spec`` targets share them;
    repeated ``--param`` flags collect into one ``args.params`` list of
    ``(name, value)`` pairs.
    """
    parser.add_argument("--dims", type=dims_arg, default=None,
                        metavar="N=EXT,...",
                        help="loop extents, e.g. i=512,j=512,k=512")
    parser.add_argument("--dtypes", type=dtypes_arg, default=None,
                        metavar="T=DT,...",
                        help="per-tensor dtypes (default float32), "
                             "e.g. C=float64")
    parser.add_argument("--param", action="extend", type=param_arg,
                        default=None, dest="params", metavar="NAME=VALUE",
                        help="scalar constant (repeatable), e.g. "
                             "--param a=0.5")


def cmd_lower(args) -> int:
    try:
        lowered = lower_spec(
            args.spec,
            args.dims or {},
            dtypes=args.dtypes,
            params=dict(args.params) if args.params else None,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for func, fingerprint in zip(lowered.funcs, lowered.fingerprints):
        print(f"stage {func.name}: {fingerprint}")
        if args.verbose:
            for index, definition in enumerate(func.definitions):
                kind = "pure" if index == 0 else f"update {index}"
                print(f"  {kind}: {definition.rhs!r}")
            bounds = {
                v.name: func.bound_of(v.name)
                for v in func.definitions[0].lhs_vars
            }
            print(f"  bounds: {bounds}")
    return EXIT_OK


def cmd_corpus(_args) -> int:
    for kernel in CORPUS:
        print(
            f"{kernel.name:20s} {kernel.family:9s} "
            f"{'x'.join(str(v) for v in kernel.dims.values()):>14s}  "
            f"{kernel.description}"
        )
    print(f"{len(CORPUS)} kernels")
    return EXIT_OK


def _filter_family(manifest: dict, family):
    if family is None:
        return manifest
    return {
        "format": manifest["format"],
        "kernels": {
            name: entry
            for name, entry in manifest["kernels"].items()
            if entry.get("family") == family
        },
    }


def cmd_manifest(args) -> int:
    families = {kernel.family for kernel in CORPUS}
    if args.family is not None and args.family not in families:
        print(
            f"error: unknown family {args.family!r}; "
            f"known: {sorted(families)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    manifest = _filter_family(corpus_manifest(), args.family)
    rendered = canonical_json(manifest)
    if args.check is None:
        sys.stdout.write(rendered)
        return EXIT_OK
    try:
        with open(args.check) as handle:
            golden = handle.read()
    except OSError as exc:
        print(
            f"error: cannot read {args.check!r}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.family is not None:
        # Compare only the selected family's slice of the golden file,
        # rendered through the same canonical JSON as the regeneration.
        try:
            golden_doc = json.loads(golden)
        except json.JSONDecodeError as exc:
            print(
                f"error: {args.check!r} is not valid JSON ({exc.msg})",
                file=sys.stderr,
            )
            return EXIT_USAGE
        golden = canonical_json(_filter_family(golden_doc, args.family))
    if golden == rendered:
        scope = f"family {args.family!r}" if args.family else "manifest"
        count = len(json.loads(rendered)["kernels"])
        print(f"{args.check}: {scope} matches ({count} kernels)")
        return EXIT_OK
    diff = difflib.unified_diff(
        golden.splitlines(keepends=True),
        rendered.splitlines(keepends=True),
        fromfile=args.check,
        tofile="regenerated",
    )
    sys.stderr.writelines(diff)
    print(
        f"{args.check}: manifest drift — lowering, fingerprints, or "
        f"classification changed; regenerate with `python -m "
        f"repro.frontend manifest > {args.check}` if intentional",
        file=sys.stderr,
    )
    return EXIT_DRIFT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.frontend",
        description="Kernel spec frontend: lower, list, pin",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lower = sub.add_parser("lower", help="lower one spec, print stages")
    p_lower.add_argument("spec", help="e.g. 'C[i,j] += A[i,k] * B[k,j]'")
    add_spec_args(p_lower)
    p_lower.add_argument("-v", "--verbose", action="store_true",
                         help="also print definitions and bounds")

    sub.add_parser("corpus", help="list the generated kernel corpus")

    p_manifest = sub.add_parser(
        "manifest",
        help="print (or --check) the golden corpus manifest",
    )
    p_manifest.add_argument("--check", default=None, metavar="PATH",
                            help="compare against a committed manifest; "
                                 "exit 1 on drift")
    p_manifest.add_argument("--family", default=None, metavar="NAME",
                            help="restrict to one corpus family (with "
                                 "--check, gate only that family's slice)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "lower": cmd_lower,
        "corpus": cmd_corpus,
        "manifest": cmd_manifest,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
