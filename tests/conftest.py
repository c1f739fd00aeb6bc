"""Every certificate a test builds is also written by the stdlib's
pure-Python encoder: `canonical_json` must give the same text as
`json.dumps(doc, sort_keys=True, indent=2) + "\\n"` on each of them."""

import json

import pytest

from selli_cert import certificates


@pytest.fixture(autouse=True)
def built_certificates_match_the_stdlib_writer(monkeypatch):
    for cls in (certificates.TorsionCertificate, certificates.DioCertificate):

        def checked(self, build=cls.to_dict):
            doc = build(self)
            assert certificates.canonical_json(doc) == (
                json.dumps(doc, sort_keys=True, indent=2) + "\n"
            )
            return doc

        monkeypatch.setattr(cls, "to_dict", checked)
