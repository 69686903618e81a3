// Linear / mixed-integer program builder.
//
// This is the in-repo replacement for the paper's use of IBM CPLEX
// (§5, footnote 13). The AC-RR formulations of §3 are assembled as an
// LpModel and handed to the SimplexSolver (LP relaxations, Benders slave)
// or the BranchAndBound solver (master problem, no-overbooking baseline).
//
// Conventions:
//  * objective sense is MINIMIZE (the paper's Problems 1-6 are all min);
//  * rows are a·x {<=,>=,==} rhs;
//  * every variable must have at least one finite bound (the AC-RR models
//    are naturally box-bounded).
//
// Storage is compressed sparse row (CSR): one flat Coef array indexed by
// a row-offset table, plus per-row metadata. Appending a row (a Benders
// cut) extends the flat arrays; truncate_rows is a resize; row(i) hands
// out a zero-copy RowView over the compressed storage. build_columns()
// turns the rows into the simplex's CSC column view (solver/sparse.hpp)
// with one counting sort; an LpSession keeps that view across solves and
// rebuilds it only after its rows change — no per-row heap allocations
// anywhere on the model-mutation or solve paths.
#pragma once

// LpModel::RowView hands out std::span (C++20, P0122R7), and so does
// everything built on the model. Under -std=c++17 <span> is empty and the
// first use fails deep inside a template wall; fail fast with a readable
// diagnostic instead. CMake pins cxx_std_20 — this guard is for out-of-tree
// builds.
#include <version>
#if !defined(__cpp_lib_span) || __cpp_lib_span < 202002L
#error "ovnes requires C++20 (std::span): compile with -std=c++20 or newer"
#endif

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "solver/sparse.hpp"

namespace ovnes::solver {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class RowSense { LessEq, GreaterEq, Equal };

struct Coef {
  int var = 0;
  double value = 0.0;
};

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = kInf;
  double cost = 0.0;      ///< objective coefficient
  bool is_integer = false;
  int branch_priority = 0;  ///< lower value = branched on earlier
};

/// Row assembly DTO for add_row/add_cut callers (kept from the
/// row-of-vectors era; the model compresses it on ingest).
struct Rowdef {
  std::string name;
  RowSense sense = RowSense::LessEq;
  double rhs = 0.0;
  std::vector<Coef> coefs;
};

/// \brief Zero-copy view of one compressed row. Valid until the next
/// mutating call on the owning model (add_row invalidates on growth).
struct RowView {
  const std::string& name;
  RowSense sense;
  double rhs;
  std::span<const Coef> coefs;  ///< sorted by var, duplicates merged
};

class LpModel {
 public:
  /// Add a continuous variable; returns its index.
  int add_variable(std::string name, double lower, double upper, double cost);
  /// Add a binary variable with the given branching priority.
  int add_binary(std::string name, double cost, int branch_priority = 0);

  /// Add a row; duplicate `var` entries in coefs are summed.
  int add_row(std::string name, RowSense sense, double rhs,
              std::vector<Coef> coefs);

  /// Drop every row with index >= `num_rows`, restoring the state before a
  /// run of add_row calls. Powers LpSession's scoped delta frames (cuts
  /// appended inside a push() are discarded by the matching pop()). A
  /// resize of the compressed arrays: O(1) bookkeeping, no repacking.
  void truncate_rows(int num_rows);

  /// Adjust an existing variable's objective coefficient.
  void set_cost(int var, double cost) { vars_[static_cast<size_t>(var)].cost = cost; }
  void set_bounds(int var, double lower, double upper);

  [[nodiscard]] int num_vars() const { return static_cast<int>(vars_.size()); }
  [[nodiscard]] int num_rows() const { return static_cast<int>(row_ptr_.size()) - 1; }
  /// Structural nonzeros across all rows (the CSR payload size).
  [[nodiscard]] long num_nonzeros() const { return static_cast<long>(coefs_.size()); }
  [[nodiscard]] const Variable& variable(int j) const { return vars_[static_cast<size_t>(j)]; }
  [[nodiscard]] RowView row(int i) const {
    const auto ii = static_cast<size_t>(i);
    return RowView{row_names_[ii], row_senses_[ii], row_rhs_[ii],
                   std::span<const Coef>(coefs_.data() + row_ptr_[ii],
                                         static_cast<size_t>(row_ptr_[ii + 1] -
                                                             row_ptr_[ii]))};
  }
  [[nodiscard]] const std::vector<Variable>& variables() const { return vars_; }
  /// CSC view of the structural columns into `out` (outer = variables,
  /// inner = rows), reusing out's storage. One counting sort over the
  /// rows: entries within each column come out row-ascending.
  void build_columns(SparseMatrix& out) const;

  /// Indices of integer-marked variables.
  [[nodiscard]] std::vector<int> integer_vars() const;

  /// Objective value of a given assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Max constraint violation of an assignment (for tests / sanity checks).
  [[nodiscard]] double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> vars_;
  // CSR row storage: row i's coefficients are coefs_[row_ptr_[i] ..
  // row_ptr_[i+1]), sorted by var with duplicates merged at add_row.
  std::vector<int> row_ptr_{0};
  std::vector<Coef> coefs_;
  std::vector<std::string> row_names_;
  std::vector<RowSense> row_senses_;
  std::vector<double> row_rhs_;
};

}  // namespace ovnes::solver
