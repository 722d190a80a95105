"""The benchmark's tracer patches fdseg names by attribute. Installing it here
makes a rename or deletion of one of those names fail this suite, not only a
traced benchmark run."""
import importlib.util
import os

import fdseg.tensor

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer(str(tmp_path))
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in spans.PLAIN]
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.uninstall()
    assert fdseg.tensor.Tape._active is None
    for owner, attr, orig in originals:
        assert owner.__dict__[attr] is orig, attr
