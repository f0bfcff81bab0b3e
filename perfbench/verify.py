"""Independent checks of a published GLOVE release.

Reads the fingerprint-dataset CSV format (`cdr/io`) directly, sharing no
code with the anonymizer:

  * every group hides at least k users;
  * no user appears in two groups;
  * users are conserved: the published users are input users, and their
    count plus the suppressed users equals the input users;
  * for a series of serve snapshots, every epoch-N group is contained in
    one epoch-N+1 group (groups only widen between epochs).

`release_digest` fingerprints a release for cross-run comparison.  It
skips the first line of each file, because that header names the dataset
after the input *path*, which differs between checkouts of the same code.
"""

import hashlib


def read_groups(path):
    """Member tuples of a release CSV, one per group, in file order.

    Rows of one group are consecutive and repeat its `members` field.
    """
    groups = []
    previous = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            members = line.split(",", 1)[0]
            if members != previous:
                groups.append(tuple(int(user) for user in members.split("+")))
                previous = members
    return groups


def dataset_users(path):
    """Users of an input fingerprint-dataset CSV or raw CDR event CSV (the
    first column is the user, or the `+`-joined members)."""
    users = set()
    previous = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            field = line.split(",", 1)[0]
            if field != previous:
                users.update(int(user) for user in field.split("+"))
                previous = field
    return users


def check_release(groups, k, input_users, suppressed_users):
    """Problems found in one release (an empty list when it is valid)."""
    problems = []
    small = [group for group in groups if len(group) < k]
    if small:
        problems.append(f"{len(small)} groups hide fewer than k={k} users, "
                        f"e.g. {small[0]}")
    seen = set()
    repeated = set()
    for group in groups:
        for user in group:
            (repeated if user in seen else seen).add(user)
    if repeated:
        problems.append(f"{len(repeated)} users are published in more than "
                        f"one group, e.g. {min(repeated)}")
    unknown = seen - input_users
    if unknown:
        problems.append(f"{len(unknown)} published users are not input "
                        f"users, e.g. {min(unknown)}")
    if len(seen) + suppressed_users != len(input_users):
        problems.append(f"users not conserved: {len(seen)} published + "
                        f"{suppressed_users} suppressed != "
                        f"{len(input_users)} input")
    return problems


def check_epochs(previous, current, epoch):
    """Problems where an epoch-`epoch` group is not covered by one group of
    the next epoch (`previous`, `current` are read_groups results)."""
    group_of = {}
    for group in current:
        members = frozenset(group)
        for user in group:
            group_of[user] = members
    for group in previous:
        successor = group_of.get(group[0])
        if successor is None or not successor.issuperset(group):
            return [f"epoch {epoch} group {group} is not contained in one "
                    f"epoch {epoch + 1} group"]
    return []


def release_digest(paths):
    """sha256 over the given release files, each without its first line."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            handle.readline()
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()
