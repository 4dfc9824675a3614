"""The manifest's families that no older test module checks, and the
manifest itself: each of its keys belongs to a group of the registry."""
from pinned import digest_test, manifest, manifest_groups

test_digest = digest_test("classifiers", "cli", "league")


def test_every_manifest_key_has_a_case():
    groups = manifest_groups()
    owners = {key: [g for g in groups if key.startswith(g + "/")] for key in manifest()}
    assert {key: found for key, found in owners.items() if len(found) != 1} == {}
    assert set(groups) == {found[0] for found in owners.values()}
