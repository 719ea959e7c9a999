"""The traced benchmark wraps pqbench entry points by name; a renamed or
removed entry point must fail here, not only in the benchmark's own tests."""
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_patch_point():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, old in patches:
            assert owner.__dict__[attr] is not old, (owner, attr)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attr, old in patches:
        assert owner.__dict__[attr] is old, (owner, attr)
