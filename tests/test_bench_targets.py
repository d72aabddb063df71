"""Every function that the benchmark's traced runs wrap must exist.

bench/spans.py wraps each (module, attribute) of its TARGETS list by name;
a target that no longer resolves makes every traced job fail.  This reads
the list from bench/ (and changes nothing there) and resolves each entry on
the package.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_span_target_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for mod_name, attr, _layer, kind in targets:
        assert kind in ("span", "count")
        owner = importlib.import_module("difflie." + mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if not callable(owner):
            missing.append("%s.%s" % (mod_name, attr))
    assert not missing, "unresolved span targets: %s" % missing
