"""Bring your own schema: Synergy on a blogging platform.

Shows what a downstream user does with the library: define relations and
foreign keys, pick roots, hand over a workload, and get materialized
views + single-lock transactions — plus the operational story (a
region-server crash and its WAL recovery).

    python examples/custom_schema.py
"""

from repro.relational.datatypes import DataType
from repro.relational.schema import ForeignKey, Index, Relation, Schema
from repro.relational.workload import Workload
from repro.systems import SynergySystem

INT, VARCHAR = DataType.INT, DataType.VARCHAR


def blog_schema() -> Schema:
    user = Relation(
        "Users",
        [("u_id", INT), ("u_name", VARCHAR), ("u_email", VARCHAR)],
        primary_key=["u_id"],
    )
    post = Relation(
        "Posts",
        [("p_id", INT), ("p_u_id", INT), ("p_title", VARCHAR),
         ("p_body", VARCHAR)],
        primary_key=["p_id"],
        foreign_keys=[ForeignKey("post_author", ("p_u_id",), "Users")],
    )
    comment = Relation(
        "Comments",
        [("cm_id", INT), ("cm_p_id", INT), ("cm_text", VARCHAR),
         ("cm_score", INT)],
        primary_key=["cm_id"],
        foreign_keys=[ForeignKey("comment_post", ("cm_p_id",), "Posts")],
    )
    schema = Schema([user, post, comment])
    schema.add_index("Posts", Index("idx_p_u_id", ("p_u_id",),
                                    ("p_id", "p_title", "p_body")))
    schema.add_index("Comments", Index("idx_cm_p_id", ("cm_p_id",),
                                       ("cm_id", "cm_text", "cm_score")))
    return schema


def blog_workload() -> Workload:
    w = Workload()
    w.add("SELECT * FROM Users as u, Posts as p "
          "WHERE u.u_id = p.p_u_id and u.u_id = ?", statement_id="user_page")
    w.add("SELECT * FROM Posts as p, Comments as c "
          "WHERE p.p_id = c.cm_p_id and c.cm_score = ?",
          statement_id="hot_comments")
    w.add("INSERT INTO Comments (cm_id, cm_p_id, cm_text, cm_score) "
          "VALUES (?, ?, ?, ?)", statement_id="add_comment")
    w.add("UPDATE Posts SET p_title = ? WHERE p_id = ?",
          statement_id="edit_title")
    return w


def main() -> None:
    system = SynergySystem(blog_schema(), blog_workload(), roots=("Users",))
    print(system.describe())

    for u in range(1, 4):
        system.load_row("Users", {"u_id": u, "u_name": f"user{u}",
                                  "u_email": f"u{u}@example.com"})
    for p in range(1, 7):
        system.load_row("Posts", {"p_id": p, "p_u_id": (p % 3) + 1,
                                  "p_title": f"post {p}", "p_body": "..." * 20})
    for c in range(1, 19):
        system.load_row("Comments", {"cm_id": c, "cm_p_id": (c % 6) + 1,
                                     "cm_text": f"comment {c}",
                                     "cm_score": c % 5})
    system.finish_load()

    rows, ms = system.timed(system.statements["user_page"], (2,))
    print(f"\nuser_page(2): {len(rows)} rows in {ms:.2f} virtual ms")
    rows, ms = system.timed(system.statements["hot_comments"], (4,))
    print(f"hot_comments(4): {len(rows)} rows in {ms:.2f} virtual ms")

    # --- ad-hoc statements, outside the workload the views serve ----------
    # a page of one post's comments: the index scan on cm_p_id carries
    # cm_id, so the cm_id bound is tested on each fetched row
    rows = system.execute(
        "SELECT c.cm_id, c.cm_text FROM Comments as c "
        "WHERE c.cm_p_id = ? and c.cm_id > ?", (2, 5)
    )
    print(f"post 2, comments after #5: {[r['cm_id'] for r in rows]}")
    rows = system.execute(
        "SELECT c.cm_p_id, COUNT(c.cm_text), MAX(c.cm_score) "
        "FROM Comments as c GROUP BY c.cm_p_id"
    )
    print(f"per-post stats: {len(rows)} posts, top score "
          f"{max(r['MAX(c.cm_score)'] for r in rows)}")

    _, ms = system.timed(system.statements["add_comment"], (100, 3, "new!", 5))
    print(f"add_comment: {ms:.2f} virtual ms (one lock on the post author)")
    _, ms = system.timed(system.statements["edit_title"], ("Edited", 3))
    print(f"edit_title: {ms:.2f} virtual ms "
          "(6-step marked update across view rows)")

    # --- operational story: region-server crash + WAL recovery ------------
    cluster = system.cluster
    victim = next(s for s in cluster.servers if s.regions)
    victim.crash()
    recovered = cluster.recover_server(victim)
    rows = system.execute(
        "SELECT * FROM MV_Posts__Comments WHERE cm_id = ?", (100,)
    )
    print(f"\nafter region-server crash: {recovered} regions recovered from "
          f"WAL; new comment still visible in view: {bool(rows)}")


if __name__ == "__main__":
    main()
