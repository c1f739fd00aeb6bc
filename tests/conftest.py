"""Every certificate a test builds is also written by the stdlib's
pure-Python encoder: `canonical_json` must give the same text as
`json.dumps(doc, sort_keys=True, indent=2) + "\\n"` on each of them.

A document whose `repr` was already checked in the same test is not
encoded again: equal `repr`s mean the same types, key order and values,
so both writers give the same text as they did the first time."""

import json

import pytest

from selli_cert import certificates


@pytest.fixture(autouse=True)
def built_certificates_match_the_stdlib_writer(monkeypatch):
    checked_reprs = set()
    for cls in (certificates.TorsionCertificate, certificates.DioCertificate):

        def checked(self, build=cls.to_dict):
            doc = build(self)
            key = repr(doc)
            if key not in checked_reprs:
                assert certificates.canonical_json(doc) == (
                    json.dumps(doc, sort_keys=True, indent=2) + "\n"
                )
                checked_reprs.add(key)
            return doc

        monkeypatch.setattr(cls, "to_dict", checked)
