"""Run one symcover CLI command in this fresh interpreter and record it.

Usage: python3 worker.py RESULT_JSON TRACE(0|1) -- <symcover CLI args...>

Times the import of `symcover.cli` (set-up) and the `cli.main(argv)`
call, then writes both, the exit code and, when tracing, the spans and
counts to RESULT_JSON.  The process exits with the CLI's own exit code,
or CRASH_EXIT when the command raised instead of returning one.

With TRACE=1 every layer function named in LAYERS is replaced by a
timing wrapper in every symcover module namespace that binds it, so
calls made through `from .x import y` names and through module globals
are both seen.  Spans stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import traceback

CRASH_EXIT = 70

# module -> public functions wrapped in a traced run
LAYERS = {
    "cli": ("cmd_build", "cmd_verify"),
    "zmod": ("factorize",),
    "sympoly": ("bbr_construct",),
    "cover2d": ("initial_cover", "transform", "verify_s2_properties"),
    "coverkd": (
        "build_hash_family",
        "verify_hash_family",
        "initial_box_cover",
        "transform_boxes",
        "verify_sk_properties",
    ),
    "circuit": ("from_cover2d", "from_coverkd", "expand_coefficients"),
    "astrong": ("target_coefficients", "check_astrong"),
    "serialize": ("cover_to_dict", "dump", "load", "cover_from_dict"),
}

# span name -> (counter name, value taken from the call's args and result)
COUNTS = {
    "sympoly.bbr_construct": ("sympoly.degree", lambda args, res: res.degree),
    "coverkd.build_hash_family": ("coverkd.hash_rows", lambda args, res: res.u),
    "coverkd.transform_boxes": ("coverkd.items_in", lambda args, res: len(args[0].items)),
    "cover2d.verify_s2_properties": ("cover2d.cells_checked", lambda args, res: res.checked),
    "coverkd.verify_sk_properties": ("coverkd.tuples_checked", lambda args, res: res.checked),
    "astrong.check_astrong": ("astrong.monomials_checked", lambda args, res: res.checked),
}


class Tracer:
    """In-memory spans [name, parent index, start, end] and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None, 0.0, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count:
                key, value = count
                self.counts[key] = self.counts.get(key, 0) + value(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of each layer function across symcover."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "symcover" or mod_name.startswith("symcover.")
        ]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"symcover.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time of direct child spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, _, start, end), inner in zip(spans, child_time):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


def run(result_path: str, trace: bool, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import symcover.cli as cli

    setup_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t1, c1 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a verdict the benchmark must record
        traceback.print_exc()
        code = CRASH_EXIT
    wall_s, cpu_s = time.perf_counter() - t1, time.process_time() - c1
    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "exit": code}
    if tracer:
        record["spans"] = tracer.spans
        record["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: worker.py RESULT_JSON TRACE(0|1) -- <symcover args>")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
