"""The benchmark's tracer patches fdseg names by attribute. Installing it here
makes a rename or deletion of one of those names fail this suite, not only a
traced benchmark run."""
import importlib.util
import os

import fdseg.data
import fdseg.tensor
import fdseg.trainer
import fdseg.unet

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


def test_tracer_names_convs_of_a_no_graph_evaluate(tmp_path):
    """evaluate() builds no graph; the tracer's conv wrapper, which wraps each
    output's grad_fn, must still let it finish and name every conv span."""
    spans = _load_spans()
    model = fdseg.unet.init_params(fdseg.unet.UNetConfig(
        base_channels=2, image_size=(16, 16)), seed=0)
    site = fdseg.data.SiteConfig("s", 0.7, 0.3, image_size=(16, 16))
    samples = fdseg.data.generate_site(site, 5, seed=2)
    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        records = fdseg.trainer.evaluate(model, samples)
    finally:
        tracer.uninstall()
    assert len(records) == 5
    convs = [s[0] for s in tracer.spans if s[0].startswith("tensor.conv2d.")]
    assert convs == [f"tensor.conv2d.fwd.{c}" for c in spans.CONVS]
    assert "trainer.evaluate" in {s[0] for s in tracer.spans}
