"""Golden digests of model documents, at least one for each kind: the
``golden`` family of ``pinned.py``, where each model is pinned both as the
format_version 4 document and as the format_version 2 one."""
from pinned import digest_test

test_document_digest = digest_test("golden")
