"""Traced child process: run one compcount request and record spans.

    python perfbench/runner.py SPANS_FILE SPAWN_NS ARG...

SPAWN_NS is the parent's ``time.time_ns()`` just before the spawn, so the
start-up span covers interpreter start plus ``import compcount.cli``. Inside
it, the import of each layer's module is a child span of that layer, so a
layer's self time includes loading its module. The runner then wraps each
public function of the compcount modules, each public class method, and
the report renderers, under every name a module binds them to, calls
``compcount.cli.main(ARG...)`` with stdout sent to a buffer, copies the
buffer to stdout and writes the spans to SPANS_FILE as JSON. An exception
leaving ``main`` still propagates after the spans are written, so the exit
code and stderr match an untraced request.

Per-element accessors (``PartAlphabet.multiplicity``, ``HessMatrix.entry``
and the like) stay unwrapped: they run once per part or matrix entry, and a
span each would swamp the request. Their time counts to the calling layer.
"""

import contextlib
import functools
import importlib
import importlib.machinery
import inspect
import io
import json
import sys
import time

# Modules in layer order; a module that no longer exists records no calls.
LAYERS = ("alphabet", "recurrence", "hessenberg", "numbers", "weakforms",
          "enumeration", "verify", "reports", "cli")
# Functions whose layer is not the module that defines them.
LAYER_OF = {"cli.parse_alphabet": "alphabet"}
# Instance methods that are a layer's public surface.
METHODS = {"reports": ("VerificationReport.to_text", "VerificationReport.to_json_dict",
                       "VerificationReport.disagreements")}

spans = []  # [name, layer, start_ns, end_ns, parent index or -1, error or None]
imports = []  # [module, layer, start_ns, end_ns, parent index or -1]
counters = {"verify.grid_points": 0, "verify.disagreements": 0}
_stack = []


class _TimedLoader:
    """Delegates to the real loader and records the module's execution."""

    def __init__(self, loader, layer):
        self._loader, self._layer = loader, layer

    def __getattr__(self, name):
        return getattr(self._loader, name)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        span = [module.__name__, self._layer, time.perf_counter_ns(), 0,
                _stack[-1] if _stack else -1]
        _stack.append(len(imports))
        imports.append(span)
        try:
            self._loader.exec_module(module)
        finally:
            span[3] = time.perf_counter_ns()
            _stack.pop()


class _TimedFinder:
    @staticmethod
    def find_spec(name, path, target=None):
        package, _, layer = name.partition(".")
        if package != "compcount" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            spec.loader = _TimedLoader(spec.loader, layer)
        return spec


sys.meta_path.insert(0, _TimedFinder)
import compcount.cli  # noqa: E402

_IMPORTED_NS = time.time_ns()
sys.meta_path.remove(_TimedFinder)


def _count_grid(result, parent):
    if parent < 0 or spans[parent][0] != "verify.run_identity":
        counters["verify.grid_points"] += sum(len(r.points) for r in result)
        counters["verify.disagreements"] += sum(not p.agree for r in result for p in r.points)


HOOKS = {"verify.run_identity": _count_grid}


def _wrap(fn, name, layer):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = _stack[-1] if _stack else -1
        index = len(spans)
        span = [name, layer, time.perf_counter_ns(), 0, parent, None]
        spans.append(span)
        _stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[3] = time.perf_counter_ns()
            _stack.pop()
        if hook:
            hook(result, parent)
        return result

    return traced


def install() -> dict:
    """Wrap the public callables of every layer module and rebind them
    everywhere the package refers to them; returns name -> call count 0
    for each wrapped name."""
    wrappers = {}
    wrapped_names = {}
    for module_name in LAYERS:
        try:
            module = importlib.import_module(f"compcount.{module_name}")
        except ImportError:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                qual = f"{module_name}.{name}"
                wrappers[obj] = _wrap(obj, qual, LAYER_OF.get(qual, module_name))
                wrapped_names[qual] = 0
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and not attr.startswith("_"):
                        qual = f"{module_name}.{name}.{attr}"
                        setattr(obj, attr, classmethod(_wrap(raw.__func__, qual, module_name)))
                        wrapped_names[qual] = 0
        for path in METHODS.get(module_name, ()):
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None and inspect.isfunction(getattr(cls, attr, None)):
                qual = f"{module_name}.{path}"
                setattr(cls, attr, _wrap(getattr(cls, attr), qual, module_name))
                wrapped_names[qual] = 0
    for module_name, module in list(sys.modules.items()):
        if module_name == "compcount" or module_name.startswith("compcount."):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
    return wrapped_names


def main(argv) -> int:
    spans_path, spawn_ns, request = argv[0], int(argv[1]), argv[2:]
    wrapped_names = install()
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            return compcount.cli.main(request)
    finally:
        out = buffer.getvalue()
        sys.stdout.write(out)
        sys.stdout.flush()
        for span in spans:
            wrapped_names[span[0]] += 1
        record = {
            "startup_ns": _IMPORTED_NS - spawn_ns,
            "imports": imports,
            "spans": spans,
            "counters": dict(counters, **{"cli.stdout_bytes": len(out.encode())}),
            "calls": wrapped_names,
        }
        with open(spans_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
