"""The 13 TPC-W write statements (paper Fig. 16).

The multi-row ``DELETE FROM shopping_cart_line WHERE scl_sc_id = ?`` is
excluded from the workload exactly as the paper excludes it (Sec.
IX-D1); W8 deletes a single line by its full key.
"""

from __future__ import annotations

WRITE_STATEMENTS: dict[str, str] = {
    # W1 — insert Orders
    "W1": (
        "INSERT INTO Orders (o_id, o_c_id, o_date, o_sub_total, o_tax, "
        "o_total, o_ship_type, o_ship_date, o_bill_addr_id, o_ship_addr_id, "
        "o_status) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    # W2 — insert CC_Xacts
    "W2": (
        "INSERT INTO CC_Xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, "
        "cx_auth_id, cx_xact_amt, cx_xact_date, cx_co_id) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    # W3 — insert Order_line
    "W3": (
        "INSERT INTO Order_line (ol_o_id, ol_id, ol_i_id, ol_qty, "
        "ol_discount, ol_comments) VALUES (?, ?, ?, ?, ?, ?)"
    ),
    # W4 — insert Customer
    "W4": (
        "INSERT INTO Customer (c_id, c_uname, c_passwd, c_fname, c_lname, "
        "c_addr_id, c_phone, c_email, c_since, c_last_login, c_login, "
        "c_expiration, c_discount, c_balance, c_ytd_pmt, c_birthdate, c_data) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    # W5 — insert Address
    "W5": (
        "INSERT INTO Address (addr_id, addr_street1, addr_street2, "
        "addr_city, addr_state, addr_zip, addr_co_id) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)"
    ),
    # W6 — insert Shopping_cart
    "W6": "INSERT INTO Shopping_cart (sc_id, sc_time) VALUES (?, ?)",
    # W7 — insert Shopping_cart_line
    "W7": (
        "INSERT INTO Shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) "
        "VALUES (?, ?, ?)"
    ),
    # W8 — delete Shopping_cart_line (single row)
    "W8": "DELETE FROM Shopping_cart_line WHERE scl_sc_id = ? and scl_i_id = ?",
    # W9 — update Item (admin: stock after order)
    "W9": "UPDATE Item SET i_stock = ? WHERE i_id = ?",
    # W10 — update Item (admin: new price/image)
    "W10": (
        "UPDATE Item SET i_cost = ?, i_pub_date = ?, i_image = ?, "
        "i_thumbnail = ? WHERE i_id = ?"
    ),
    # W11 — update Shopping_cart timestamp
    "W11": "UPDATE Shopping_cart SET sc_time = ? WHERE sc_id = ?",
    # W12 — update Shopping_cart_line quantity
    "W12": (
        "UPDATE Shopping_cart_line SET scl_qty = ? "
        "WHERE scl_sc_id = ? and scl_i_id = ?"
    ),
    # W13 — update Customer (balance/ytd after purchase)
    "W13": (
        "UPDATE Customer SET c_balance = ?, c_ytd_pmt = ?, c_login = ? "
        "WHERE c_id = ?"
    ),
}

