"""The 11 TPC-W join queries (paper Fig. 15).

Each entry mirrors the figure's row: tables, filters, ordering, grouping
and limits. Q9 and Q11 are self-joins; Q7 uses Address and Country
twice — Synergy answers those from base tables. The two soundex queries
are excluded (Phoenix lacked soundex; Sec. IX-D1), as in the paper.
"""

from __future__ import annotations

# The derived "Orders tmp table" of Q10/Q11 is the TPC-W convention of
# restricting best-seller/related-item statistics to the most recent
# orders (3333 / 10000 in the reference implementation).
RECENT_ORDERS_Q10 = 3333
RECENT_ORDERS_Q11 = 10000

JOIN_QUERIES: dict[str, str] = {
    # Q1 — order display: items of one order
    "Q1": (
        "SELECT * FROM Item as i, Order_line as ol "
        "WHERE ol.ol_i_id = i.i_id and ol.ol_o_id = ?"
    ),
    # Q2 — most recent order of a customer
    "Q2": (
        "SELECT * FROM Customer as c, Orders as o "
        "WHERE c.c_id = o.o_c_id and c.c_uname = ? "
        "ORDER BY o.o_date DESC, o.o_id DESC LIMIT 1"
    ),
    # Q3 — customer with address and country
    "Q3": (
        "SELECT * FROM Customer as c, Address as a, Country as co "
        "WHERE c.c_addr_id = a.addr_id and a.addr_co_id = co.co_id "
        "and c.c_uname = ?"
    ),
    # Q4 — new products by subject, by title
    "Q4": (
        "SELECT * FROM Author as a, Item as i "
        "WHERE a.a_id = i.i_a_id and i.i_subject = ? "
        "ORDER BY i.i_title LIMIT 50"
    ),
    # Q5 — new products by subject, by publication date
    "Q5": (
        "SELECT * FROM Author as a, Item as i "
        "WHERE a.a_id = i.i_a_id and i.i_subject = ? "
        "ORDER BY i.i_pub_date DESC, i.i_title LIMIT 50"
    ),
    # Q6 — product detail with author
    "Q6": (
        "SELECT * FROM Author as a, Item as i "
        "WHERE a.a_id = i.i_a_id and i.i_id = ?"
    ),
    # Q7 — order display: full order with both addresses and countries
    "Q7": (
        "SELECT * FROM Orders as o, Customer as c, "
        "Address as ship_addr, Address as bill_addr, "
        "Country as ship_co, Country as bill_co "
        "WHERE o.o_id = ? and o.o_c_id = c.c_id "
        "and o.o_ship_addr_id = ship_addr.addr_id "
        "and o.o_bill_addr_id = bill_addr.addr_id "
        "and ship_addr.addr_co_id = ship_co.co_id "
        "and bill_addr.addr_co_id = bill_co.co_id"
    ),
    # Q8 — shopping cart contents with item details
    "Q8": (
        "SELECT * FROM Item as i, Shopping_cart_line as scl "
        "WHERE scl.scl_i_id = i.i_id and scl.scl_sc_id = ?"
    ),
    # Q9 — related item (item self-join)
    "Q9": (
        "SELECT j.i_id, j.i_title, j.i_thumbnail "
        "FROM Item as i, Item as j "
        "WHERE i.i_id = ? and i.i_related1 = j.i_id"
    ),
    # Q10 — best sellers by subject over recent orders
    "Q10": (
        "SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) "
        "FROM Author as a, Item as i, Order_line as ol, "
        f"(SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT {RECENT_ORDERS_Q10}) as tmp "
        "WHERE a.a_id = i.i_a_id and ol.ol_i_id = i.i_id "
        "and ol.ol_o_id = tmp.o_id and i.i_subject = ? "
        "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname "
        "ORDER BY SUM(ol.ol_qty) DESC LIMIT 50"
    ),
    # Q11 — admin: items bought together (order_line self-join)
    "Q11": (
        "SELECT ol2.ol_i_id, SUM(ol2.ol_qty) "
        "FROM Order_line as ol, Order_line as ol2, "
        f"(SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT {RECENT_ORDERS_Q11}) as tmp "
        "WHERE ol.ol_o_id = tmp.o_id and ol.ol_i_id = ? "
        "and ol2.ol_o_id = ol.ol_o_id and ol2.ol_i_id <> ol.ol_i_id "
        "GROUP BY ol2.ol_i_id ORDER BY SUM(ol2.ol_qty) DESC LIMIT 5"
    ),
}

#: Join queries VoltDB cannot run under any single partitioning scheme
#: (paper Fig. 12 marks them with an X).
VOLTDB_UNSUPPORTED = ("Q3", "Q7", "Q9", "Q10")

