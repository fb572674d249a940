"""The traced benchmark run patches qident's public calls by name.

`perfbench/spans.py` lists every (module, attribute) it wraps in
`TRACED`; a refactor that moves or deletes one of them breaks
`perfbench/run.py --trace 1` without failing any other test.  The file is
loaded read-only here, without putting `perfbench/` on the import path.
"""

import importlib.util
from pathlib import Path

import pytest

from qident import cli  # noqa: F401  (the traced child imports the CLI first)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name,module,attr", spans.TRACED,
                         ids=[f"{m}:{a}" for _, m, a in spans.TRACED])
def test_every_traced_call_resolves(name, module, attr):
    owner, leaf = spans._resolve(module, attr)
    assert callable(getattr(owner, leaf, None)), f"{name}: {module}.{attr}"
